package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// StartDebugServer serves a command's debug endpoints on addr in a
// background goroutine: /debug/pprof (CPU, heap, goroutine, block
// profiles), and reg's series as Prometheus text on /metrics (followed by
// the go_* runtime gauges) and as flat JSON on /debug/vars. It returns the
// bound address, so ":0" picks a free port. The server lives for the
// remainder of the process; simulation commands are short-lived, so there
// is no shutdown surface.
func StartDebugServer(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", reg.JSONHandler())
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
