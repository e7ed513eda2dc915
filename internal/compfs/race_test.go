//go:build race

package compfs

func init() { raceEnabled = true }
