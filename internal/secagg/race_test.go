//go:build race

package secagg

func init() { raceEnabled = true }
