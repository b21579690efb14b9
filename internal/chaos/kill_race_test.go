//go:build race

package chaos_test

import "time"

// Campaign tuning under the race detector: instrumented workers take
// tens of milliseconds just to reach the workload, so the start-up
// kill window widens, the round count drops, and phase diversity is
// not asserted — the race build exercises the harness for data races;
// the phase coverage acceptance runs on the uninstrumented build.
const (
	killAcceptanceRounds = 60
	killMaxDelay         = 250 * time.Millisecond
	replKillMaxDelay     = 300 * time.Millisecond
	killAssertPhases     = false
)
