// Package serve is the observability plane of the D-Watch daemons: one
// HTTP mux exposing metrics, health, live positions, and profiling for
// a running deployment.
//
// Endpoints:
//
//	/metrics           Prometheus text exposition (obs.Registry)
//	/healthz           liveness: 200 as long as the process serves
//	/readyz            readiness: 503 until the Ready hook passes
//	                   (dwatchd: every reader's baseline confirmed)
//	/api/v1/stats      api.FleetStats: one pipeline snapshot per environment
//	/api/v1/positions  latest fix per environment (JSON), or a live
//	                   Server-Sent-Events stream of every environment's
//	                   new fixes when the client asks for
//	                   text/event-stream (or ?stream=1); idle streams
//	                   carry ": keepalive" comment frames
//	/api/v1/envs       the environment listing
//	/api/v1/{env}/...  one environment's positions, stats, traces, RF
//	                   health, and WAL status (see envroutes.go)
//	/api/v1/cluster    cluster view (api.ClusterStatus) when this node
//	                   runs in cluster mode
//	/api/v1/profiles   continuous-profiling ring listing (newest first),
//	                   /api/v1/profiles/{name} fetches one raw pprof
//	/debug/pprof/*     net/http/pprof
//
// Every JSON body is a type from internal/api — the versioned wire
// contract shared with the gateway, the typed client, and the smoke
// scripts — so a handler cannot drift from what consumers decode.
//
// The server is deliberately decoupled from internal/pipeline: it sees
// a registry, a few typed hooks, and a position hub, so any future
// subsystem (sharded fusers, multi-site aggregators) can mount the
// same plane.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"dwatch/internal/api"
	"dwatch/internal/obs"
)

// Options configures a Server. Every field is optional: endpoints
// whose hook is absent degrade gracefully (404 for positions/stats,
// empty exposition, always-ready readiness).
type Options struct {
	// Registry backs /metrics; the server also registers its own
	// request counters on it when present.
	Registry *obs.Registry
	// FleetStats supplies the /api/v1/stats payload (one snapshot per
	// environment); it is re-invoked per request.
	FleetStats func() api.FleetStats
	// Ready gates /readyz: nil error (or a nil hook) means ready.
	Ready func() error
	// Readers supplies per-reader session status for the /readyz body
	// (typically adapted from session.Supervisor.Status).
	Readers func() []ReaderStatus
	// Degraded reports whether the deployment is localizing from a
	// quorum with a reader down; surfaced on /readyz.
	Degraded func() bool
	// Hub feeds /api/v1/positions and the env-scoped
	// /api/v1/{env}/positions from the snapshot+delta broadcast plane.
	Hub *Hub
	// Envs lists the fleet's environments for /api/v1/envs.
	Envs func() []EnvInfo
	// Env resolves one environment's handle for the /api/v1/{env}/*
	// routes (typically fleet.Fleet.EnvHandle).
	Env func(id string) (EnvHandle, bool)
	// Cluster supplies the /api/v1/cluster payload when the daemon runs
	// as a cluster node (or gateway); absent = 404.
	Cluster func() api.ClusterStatus
	// Profiles lists the continuous-profiling ring for /api/v1/profiles;
	// ProfileOpen resolves one stored profile's raw bytes. Both absent =
	// 404 (daemon started without -profile-dir).
	Profiles    func() []api.ProfileInfo
	ProfileOpen func(name string) (io.ReadCloser, error)
	// SSEKeepalive is the idle interval after which a position stream
	// emits a ": keepalive" comment frame so proxies and clients keep
	// quiet connections open. 0 = 15 s.
	SSEKeepalive time.Duration
	// Logger, when set, receives serve-plane log records.
	Logger *slog.Logger
}

// Option configures a Server at construction.
type Option func(*Options)

// WithRegistry backs /metrics (and request counting) with reg.
func WithRegistry(reg *obs.Registry) Option { return func(o *Options) { o.Registry = reg } }

// WithFleetStats supplies the /api/v1/stats payload hook.
func WithFleetStats(fn func() api.FleetStats) Option {
	return func(o *Options) { o.FleetStats = fn }
}

// WithReady gates /readyz on fn (nil error = ready).
func WithReady(fn func() error) Option { return func(o *Options) { o.Ready = fn } }

// WithReaders supplies per-reader session status for /readyz.
func WithReaders(fn func() []ReaderStatus) Option { return func(o *Options) { o.Readers = fn } }

// WithDegraded supplies the degraded-mode flag for /readyz.
func WithDegraded(fn func() bool) Option { return func(o *Options) { o.Degraded = fn } }

// WithCluster supplies the /api/v1/cluster payload hook.
func WithCluster(fn func() api.ClusterStatus) Option {
	return func(o *Options) { o.Cluster = fn }
}

// WithProfiles feeds /api/v1/profiles from a continuous-profiling ring:
// list enumerates stored profiles, open resolves one by name.
func WithProfiles(list func() []api.ProfileInfo, open func(name string) (io.ReadCloser, error)) Option {
	return func(o *Options) { o.Profiles, o.ProfileOpen = list, open }
}

// WithSSEKeepalive sets the idle keepalive interval for position
// streams (0 = 15 s).
func WithSSEKeepalive(d time.Duration) Option { return func(o *Options) { o.SSEKeepalive = d } }

// WithLogger routes serve-plane log records to l.
func WithLogger(l *slog.Logger) Option { return func(o *Options) { o.Logger = l } }

// Server wraps an http.Server with the observability mux and a
// graceful lifecycle: New → Start → Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	requests *obs.CounterVec

	mu sync.Mutex
	hs *http.Server
	ln net.Listener
}

// New builds the mux from functional options. The server is inert
// until Start (tests can drive Handler through httptest instead).
func New(opts ...Option) *Server {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{opts: o, mux: http.NewServeMux()}
	s.requests = o.Registry.CounterVec("dwatch_http_requests_total",
		"Observability-plane HTTP requests by endpoint.", "path")
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/api/v1/stats", s.handleStats)
	s.mux.HandleFunc("/api/v1/positions", s.handlePositions)
	s.mux.HandleFunc("/api/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/api/v1/profiles", s.handleProfiles)
	s.mux.HandleFunc("/api/v1/profiles/{name}", s.handleProfile)
	// Per-environment routes. One catch-all wildcard dispatches the
	// env-scoped endpoints (ServeMux cannot rank /api/v1/{env}/stats
	// against /api/v1/profiles/{name}, but every literal pattern above
	// matches a strict subset of this one and therefore wins).
	s.mux.HandleFunc("/api/v1/envs", s.handleEnvs)
	s.mux.HandleFunc("/api/v1/{env}/{rest...}", s.handleEnvRoutes)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the full observability mux (request counting
// included) — the seam httptest drives.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.With(endpointLabel(r.URL.Path)).Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// endpointLabel collapses request paths onto the known endpoint set so
// the request counter's cardinality stays bounded no matter what URLs
// clients probe.
func endpointLabel(path string) string {
	switch {
	case path == "/healthz", path == "/readyz", path == "/metrics",
		path == "/api/v1/stats", path == "/api/v1/positions",
		path == "/api/v1/envs", path == "/api/v1/cluster",
		path == "/api/v1/profiles":
		return path
	case strings.HasPrefix(path, "/api/v1/profiles/"):
		return "/api/v1/profiles/{name}"
	case strings.HasPrefix(path, "/api/v1/cluster/"):
		return "/api/v1/cluster/"
	case strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof/"
	}
	// Env-scoped routes collapse onto their patterns: env IDs are
	// client-supplied path data, so they must not become label values.
	if rest, ok := strings.CutPrefix(path, "/api/v1/"); ok {
		if env, tail, ok := strings.Cut(rest, "/"); ok && env != "" {
			switch {
			case tail == "positions", tail == "stats", tail == "health",
				tail == "wal", tail == "traces":
				return "/api/v1/{env}/" + tail
			case strings.HasPrefix(tail, "traces/"):
				return "/api/v1/{env}/traces/{id}"
			}
		}
	}
	return "other"
}

// Start listens on addr and serves in a background goroutine,
// returning the bound address (so addr may use port 0).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server, waiting for in-flight requests
// (SSE streams are bounded by the context deadline).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Info(fmt.Sprintf(format, args...))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := api.ReadyResponse{Ready: true}
	if s.opts.Ready != nil {
		if err := s.opts.Ready(); err != nil {
			resp.Ready = false
			resp.Reason = err.Error()
		}
	}
	if s.opts.Degraded != nil {
		resp.Degraded = s.opts.Degraded()
	}
	if s.opts.Readers != nil {
		resp.Readers = s.opts.Readers()
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.opts.Registry.WritePrometheus(w); err != nil {
		s.logf("metrics: %v", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/stats", r.Method))
		return
	}
	if s.opts.FleetStats == nil {
		writeError(w, http.StatusNotFound, "stats_unavailable",
			"no stats hook configured on this deployment")
		return
	}
	writeJSON(w, s.opts.FleetStats())
}

func (s *Server) handlePositions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/positions", r.Method))
		return
	}
	if s.opts.Hub == nil {
		writeError(w, http.StatusNotFound, "positions_unavailable",
			"no position hub configured on this deployment")
		return
	}
	if wantsEventStream(r) {
		s.streamHub(w, r, "") // whole-fleet stream
		return
	}
	writeJSON(w, api.PositionsResponse{Positions: s.opts.Hub.Latest()})
}

// handleCluster serves the cluster view: membership and assignments on
// a gateway, the node's own identity and assignment on a node.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/cluster", r.Method))
		return
	}
	if s.opts.Cluster == nil {
		writeError(w, http.StatusNotFound, "cluster_unavailable",
			"this daemon is not running in cluster mode")
		return
	}
	writeJSON(w, s.opts.Cluster())
}

// handleProfiles lists the continuous-profiling ring, newest first.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/profiles", r.Method))
		return
	}
	if s.opts.Profiles == nil {
		writeError(w, http.StatusNotFound, "profiles_unavailable",
			"no profiling ring configured on this deployment (start dwatchd with -profile-dir)")
		return
	}
	writeJSON(w, api.ProfilesResponse{Profiles: s.opts.Profiles()})
}

// handleProfile streams one stored pprof capture's raw bytes.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s not allowed on /api/v1/profiles/{name}", r.Method))
		return
	}
	if s.opts.ProfileOpen == nil {
		writeError(w, http.StatusNotFound, "profiles_unavailable",
			"no profiling ring configured on this deployment (start dwatchd with -profile-dir)")
		return
	}
	name := r.PathValue("name")
	rc, err := s.opts.ProfileOpen(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "profile_not_found",
			fmt.Sprintf("profile %q is not in the ring (evicted, or never existed)", name))
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := io.Copy(w, rc); err != nil {
		s.logf("profiles: %v", err)
	}
}

func wantsEventStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode failure here means the client hung up mid-body;
	// nothing recoverable.
	_ = enc.Encode(v)
}

// writeError emits the uniform api.Error envelope every /api/v1/*
// endpoint returns on failure.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSONStatus(w, status, api.Error{Error: api.ErrorBody{Code: code, Message: message}})
}
