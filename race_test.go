//go:build race

package m2m

func init() { raceEnabled = true }
