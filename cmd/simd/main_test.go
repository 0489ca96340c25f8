package main

import (
	"testing"
	"time"

	"tokencmp/internal/simd"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*simd.Config)
		ok   bool
	}{
		{"defaults", func(*simd.Config) {}, true},
		{"one slot, one waiter, one entry", func(c *simd.Config) { c.MaxConcurrent, c.QueueDepth, c.CacheEntries = 1, 1, 1 }, true},
		{"zero ttl never expires", func(c *simd.Config) { c.CacheTTL = 0 }, true},
		{"negative ttl never expires", func(c *simd.Config) { c.CacheTTL = -time.Second }, true},
		{"zero workers", func(c *simd.Config) { c.MaxConcurrent = 0 }, false},
		{"negative workers", func(c *simd.Config) { c.MaxConcurrent = -3 }, false},
		{"zero queue", func(c *simd.Config) { c.QueueDepth = 0 }, false},
		{"negative queue", func(c *simd.Config) { c.QueueDepth = -1 }, false},
		{"negative cache entries", func(c *simd.Config) { c.CacheEntries = -1 }, false},
		{"zero request timeout", func(c *simd.Config) { c.DefaultTimeout = 0 }, false},
		{"negative max timeout", func(c *simd.Config) { c.MaxTimeout = -time.Second }, false},
		{"zero drain", func(c *simd.Config) { c.DrainTimeout = 0 }, false},
	} {
		c := simd.DefaultConfig()
		tc.edit(&c)
		if err := validate(c); (err == nil) != tc.ok {
			t.Errorf("%s: validate(%+v) = %v, want ok=%v", tc.name, c, err, tc.ok)
		}
	}
}
