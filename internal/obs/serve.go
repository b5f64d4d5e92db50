package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a live observability endpoint: /metrics in the Prometheus
// text format plus the net/http/pprof profiling handlers under
// /debug/pprof/. It serves from its own goroutines; Close releases the
// listener.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// handler returns the mux Serve mounts: /metrics rendering reg (an empty
// page for a nil registry) and the standard pprof handlers.
func handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.writePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("fleetio observability: see /metrics and /debug/pprof/\n"))
	})
	return mux
}

// Serve listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves
// handler(reg) in the background. The returned Server reports the bound
// address (useful with port 0) and must be Closed by the caller.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: handler(reg)}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
