//go:build race

package noise_test

func init() { raceEnabled = true }
