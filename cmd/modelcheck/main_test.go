package main

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	ok := config{protocol: "all", caches: 3, tokens: 4}
	for _, tc := range []struct {
		name string
		edit func(*config)
		ok   bool
	}{
		{"defaults", func(*config) {}, true},
		{"scaled", func(c *config) { c.protocol, c.caches, c.msgs = "directory", 4, 4 }, true},
		{"capped", func(c *config) { c.limit, c.jobs, c.timeout = 1000, 8, time.Minute }, true},
		{"unknown protocol", func(c *config) { c.protocol = "moesi" }, false},
		{"one cache", func(c *config) { c.caches = 1 }, false},
		{"31 caches", func(c *config) { c.caches = 31 }, false},
		{"no tokens", func(c *config) { c.tokens = 0 }, false},
		{"255 tokens", func(c *config) { c.tokens = 255 }, false},
		{"negative msgs", func(c *config) { c.msgs = -1 }, false},
		{"61 msgs", func(c *config) { c.msgs = 61 }, false},
		{"negative limit", func(c *config) { c.limit = -1 }, false},
		{"negative jobs", func(c *config) { c.jobs = -3 }, false},
		{"negative timeout", func(c *config) { c.timeout = -time.Second }, false},
	} {
		c := ok
		tc.edit(&c)
		if err := validate(c); (err == nil) != tc.ok {
			t.Errorf("%s: validate(%+v) = %v, want ok=%v", tc.name, c, err, tc.ok)
		}
	}
}
