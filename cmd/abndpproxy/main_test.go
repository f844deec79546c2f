package main

import (
	"bytes"
	"net"
	"testing"
)

// Usage errors exit 2 before the proxy starts; a listen address already in
// use exits 1, like every other failure to serve.
func TestExitCodes(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	const backend = "http://127.0.0.1:1" // nothing listens: probes fail fast
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"no -backends", nil, 2},
		{"blank -backends", []string{"-backends", " , "}, 2},
		{"relative backend URL", []string{"-backends", "127.0.0.1:8081"}, 2},
		{"bad -log", []string{"-backends", backend, "-log", "xml"}, 2},
		{"bad -log-level", []string{"-backends", backend, "-log-level", "loud"}, 2},
		{"address in use", []string{"-backends", backend, "-addr", busy.Addr().String()}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(tc.args, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
		})
	}
}
