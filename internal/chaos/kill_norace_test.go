//go:build !race

package chaos_test

import "time"

// Campaign tuning for uninstrumented binaries: the worker is inside the
// commit pipeline within a few milliseconds of exec, so a short
// start-up kill window samples start-up and recovery, and phase
// diversity is asserted. A replicated worker fsyncs three directories
// per commit, so its window stretches a little.
const (
	killAcceptanceRounds = 200
	killMaxDelay         = 30 * time.Millisecond
	replKillMaxDelay     = 60 * time.Millisecond
	killAssertPhases     = true
)
