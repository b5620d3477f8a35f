package backoff

import (
	"testing"
	"time"
)

func TestScheduleWait(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		s    Schedule
		n    int
		want time.Duration
	}{
		{Schedule{100 * ms, 5 * time.Second}, 1, 100 * ms},
		{Schedule{100 * ms, 5 * time.Second}, 2, 200 * ms},
		{Schedule{100 * ms, 5 * time.Second}, 6, 3200 * ms},
		{Schedule{100 * ms, 5 * time.Second}, 7, 5 * time.Second},
		{Schedule{100 * ms, 5 * time.Second}, 1 << 30, 5 * time.Second},
		{Schedule{100 * ms, 2 * time.Second}, 5, 1600 * ms},
		{Schedule{100 * ms, 2 * time.Second}, 6, 2 * time.Second},
		{Schedule{3 * ms, 3 * ms}, 1, 3 * ms},
		{Schedule{3 * ms, 3 * ms}, 4, 3 * ms},
		{Schedule{10 * ms, 4 * ms}, 1, 4 * ms}, // Base > Max: Max caps every wait
		{Schedule{10 * ms, 4 * ms}, 3, 4 * ms},
	} {
		if got := tc.s.Wait(tc.n); got != tc.want {
			t.Errorf("%+v.Wait(%d) = %v, want %v", tc.s, tc.n, got, tc.want)
		}
	}
}
