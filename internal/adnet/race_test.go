//go:build race

package adnet

func init() { raceEnabled = true }
