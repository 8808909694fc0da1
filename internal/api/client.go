package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client is the typed /api/v1 consumer: every method hits one endpoint
// and decodes its contract type. The gateway, the smoke-script
// assertion tool, and the cluster agent are all built on it.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" (no
	// trailing slash needed).
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Strict rejects response bodies carrying fields this package does
	// not know about — the smoke scripts' defense against silently
	// divergent wire shapes. Leave false for forward-compatible
	// consumers.
	Strict bool
}

// NewClient builds a client for a base URL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// APIError is a decoded error envelope plus its HTTP status — what
// every client method returns when the server answered with the
// uniform {"error":{code,message}} body.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
}

// ErrorCode extracts the envelope code from an error returned by a
// client method ("" when err is not an *APIError).
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// CodeEnvNotFound is the envelope code for a missing environment —
// the signal the gateway's retry-on-handoff path keys on.
const CodeEnvNotFound = "env_not_found"

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// envPath scopes an endpoint to an environment: the /api/v1/{env}/
// form, or the process-wide route for env "" (only positions has one).
func envPath(env, endpoint string) string {
	if env == "" {
		return "/api/v1/" + endpoint
	}
	return "/api/v1/" + url.PathEscape(env) + "/" + endpoint
}

// decode unmarshals body bytes into v, honoring Strict.
func (c *Client) decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if c.Strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

// do performs one request and decodes the response into out (skipped
// when out is nil). Non-2xx responses are decoded into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env Error
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Error.Code != "" {
			return &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
		}
		return &APIError{Status: resp.StatusCode, Code: "http_error",
			Message: strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	return c.decode(data, out)
}

// Envs fetches the environment listing.
func (c *Client) Envs(ctx context.Context) (EnvsResponse, error) {
	var out EnvsResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/envs", nil, &out)
	return out, err
}

// Positions fetches the latest fix of one environment, or of every
// environment when env is "".
func (c *Client) Positions(ctx context.Context, env string) (PositionsResponse, error) {
	var out PositionsResponse
	err := c.do(ctx, http.MethodGet, envPath(env, "positions"), nil, &out)
	return out, err
}

// EnvStats fetches one environment's pipeline snapshot (FleetStats
// fetches every environment's).
func (c *Client) EnvStats(ctx context.Context, env string) (PipelineStats, error) {
	var out PipelineStats
	err := c.do(ctx, http.MethodGet, envPath(env, "stats"), nil, &out)
	return out, err
}

// FleetStats fetches the aggregate per-environment stats map served by
// dwatchd and the gateway.
func (c *Client) FleetStats(ctx context.Context) (FleetStats, error) {
	var out FleetStats
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &out)
	return out, err
}

// Health fetches one environment's RF-health snapshot.
func (c *Client) Health(ctx context.Context, env string) (RFHealth, error) {
	var out RFHealth
	err := c.do(ctx, http.MethodGet, envPath(env, "health"), nil, &out)
	return out, err
}

// Traces fetches one environment's retained trace listing.
func (c *Client) Traces(ctx context.Context, env string) (TracesResponse, error) {
	var out TracesResponse
	err := c.do(ctx, http.MethodGet, envPath(env, "traces"), nil, &out)
	return out, err
}

// Trace resolves one trace ID within an environment.
func (c *Client) Trace(ctx context.Context, env, id string) (Trace, error) {
	var out Trace
	err := c.do(ctx, http.MethodGet, envPath(env, "traces/"+url.PathEscape(id)), nil, &out)
	return out, err
}

// WAL fetches one environment's ingest WAL status.
func (c *Client) WAL(ctx context.Context, env string) (WALStatus, error) {
	var out WALStatus
	err := c.do(ctx, http.MethodGet, envPath(env, "wal"), nil, &out)
	return out, err
}

// Ready fetches /readyz. Both 200 and 503 decode into the response
// (Ready reports which); other statuses surface as errors.
func (c *Client) Ready(ctx context.Context) (ReadyResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/readyz"), nil)
	if err != nil {
		return ReadyResponse{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return ReadyResponse{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ReadyResponse{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return ReadyResponse{}, &APIError{Status: resp.StatusCode, Code: "http_error",
			Message: strings.TrimSpace(string(data))}
	}
	var out ReadyResponse
	if err := c.decode(data, &out); err != nil {
		return ReadyResponse{}, err
	}
	return out, nil
}

// Cluster fetches the cluster view (directory on a gateway, self view
// on a node).
func (c *Client) Cluster(ctx context.Context) (ClusterStatus, error) {
	var out ClusterStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/cluster", nil, &out)
	return out, err
}

// Join announces a node to the gateway's directory.
func (c *Client) Join(ctx context.Context, req JoinRequest) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/cluster/join", req, &out)
	return out, err
}

// Heartbeat reports liveness/ownership and returns the node's
// assigned environment set.
func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/cluster/heartbeat", req, &out)
	return out, err
}

// Leave removes a node from the directory.
func (c *Client) Leave(ctx context.Context, req LeaveRequest) (LeaveResponse, error) {
	var out LeaveResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/cluster/leave", req, &out)
	return out, err
}

// raw performs one GET and returns the body bytes verbatim — for
// endpoints whose payload is not JSON (Prometheus pages, pprof
// profiles). Non-2xx responses still decode the error envelope.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env Error
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Error.Code != "" {
			return nil, &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
		}
		return nil, &APIError{Status: resp.StatusCode, Code: "http_error",
			Message: strings.TrimSpace(string(data))}
	}
	return data, nil
}

// Metrics fetches the server's /metrics page (Prometheus text format;
// on a gateway this is the federated, node-labeled union).
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, "/metrics")
}

// NodeMetrics fetches one node's raw /metrics page through a gateway.
func (c *Client) NodeMetrics(ctx context.Context, node string) ([]byte, error) {
	return c.raw(ctx, "/api/v1/nodes/"+url.PathEscape(node)+"/metrics")
}

// ClusterHealth fetches the gateway's cluster-wide health rollup.
func (c *Client) ClusterHealth(ctx context.Context) (ClusterHealth, error) {
	var out ClusterHealth
	err := c.do(ctx, http.MethodGet, "/api/v1/cluster/health", nil, &out)
	return out, err
}

// Profiles lists the server's continuous-profiling ring.
func (c *Client) Profiles(ctx context.Context) (ProfilesResponse, error) {
	var out ProfilesResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/profiles", nil, &out)
	return out, err
}

// Profile fetches one stored profile's raw pprof bytes.
func (c *Client) Profile(ctx context.Context, name string) ([]byte, error) {
	return c.raw(ctx, "/api/v1/profiles/"+url.PathEscape(name))
}

// NodeProfiles lists one node's profiling ring through a gateway.
func (c *Client) NodeProfiles(ctx context.Context, node string) (ProfilesResponse, error) {
	var out ProfilesResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/nodes/"+url.PathEscape(node)+"/profiles", nil, &out)
	return out, err
}

// NodeProfile fetches one node's stored profile through a gateway.
func (c *Client) NodeProfile(ctx context.Context, node, name string) ([]byte, error) {
	return c.raw(ctx, "/api/v1/nodes/"+url.PathEscape(node)+"/profiles/"+url.PathEscape(name))
}

// WatchPositions consumes the SSE position stream for env ("" = the
// whole fleet), invoking fn for every "position" event with both the
// raw frame payload (the bytes the server published — forward these
// for a bit-identical pass-through) and the decoded Position. It
// returns nil when the stream ends cleanly, ctx.Err() on cancellation,
// and the transport or callback error otherwise.
func (c *Client) WatchPositions(ctx context.Context, env string, fn func(raw []byte, p Position) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(envPath(env, "positions")), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var envl Error
		if jerr := json.Unmarshal(data, &envl); jerr == nil && envl.Error.Code != "" {
			return &APIError{Status: resp.StatusCode, Code: envl.Error.Code, Message: envl.Error.Message}
		}
		return &APIError{Status: resp.StatusCode, Code: "http_error",
			Message: strings.TrimSpace(string(data))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case strings.HasPrefix(line, ":"): // keepalive comment frame
		case line == "" && data != nil:
			var p Position
			if err := c.decode(data, &p); err != nil {
				return fmt.Errorf("api: bad position frame: %w", err)
			}
			if err := fn(data, p); err != nil {
				return err
			}
			data = nil
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}
