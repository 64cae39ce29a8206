//go:build race

package stmds

func init() { raceEnabled = true }
