// Package backoff is the one capped exponential retry schedule the study
// service uses: fleet re-probing of a down worker, the remote cache tier's
// down window, and the client's reconnect wait.
package backoff

import "time"

// Schedule waits Base before the first retry, doubling per further retry
// up to Max.
type Schedule struct {
	Base, Max time.Duration
}

// Wait returns the wait before retry n (1-based), never more than Max.
func (s Schedule) Wait(n int) time.Duration {
	w := s.Base
	for i := 1; i < n && w < s.Max; i++ {
		w *= 2
	}
	return min(w, s.Max)
}
