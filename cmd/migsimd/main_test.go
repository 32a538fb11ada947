package main

import (
	"math"
	"testing"
	"time"
)

func TestMaxWallDuration(t *testing.T) {
	for _, tc := range []struct {
		sec  float64
		want time.Duration
	}{
		{300, 5 * time.Minute},
		{0.5, 500 * time.Millisecond},
		{0, 0}, // the service treats <= 0 as its default
		{9e9, time.Duration(9e9 * float64(time.Second))},
	} {
		got, err := maxWallDuration(tc.sec)
		if err != nil || got != tc.want {
			t.Errorf("maxWallDuration(%g) = %v, %v; want %v", tc.sec, got, err, tc.want)
		}
	}
	for _, sec := range []float64{1e10, 1e12, math.Inf(1), math.NaN()} {
		if d, err := maxWallDuration(sec); err == nil {
			t.Errorf("maxWallDuration(%g) = %v, want an error", sec, d)
		}
	}
}
