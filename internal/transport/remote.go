package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/dlse"
	"repro/internal/ir"
)

// Remote is a SegmentSource over one dlserve node's partial-read HTTP
// surface: GET /v2/partial, GET /v2/manifest, GET /healthz. The node
// executes the same code path Local does (transport.PartialOf), so a
// Remote answer is byte-identical to a Local one over the same snapshot.
type Remote struct {
	base   string
	client *http.Client
}

// NewRemote builds a Remote source over a node base URL (scheme://host:port,
// no trailing slash required). client may be nil for http.DefaultClient;
// routers share one client so connection pools and timeouts are uniform.
func NewRemote(base string, client *http.Client) *Remote {
	if client == nil {
		client = http.DefaultClient
	}
	return &Remote{base: strings.TrimRight(base, "/"), client: client}
}

// Addr identifies the source by its base URL.
func (r *Remote) Addr() string { return r.base }

// wireError is the node's typed JSON error envelope {error,code,pos}.
type wireError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// decodeError maps a non-2xx response back onto the shared error taxonomy
// so callers branch identically against Local and Remote sources. An error
// the node's PartialOf raised already names its sentinel and comes back
// with the text Local gives.
func decodeError(status int, body []byte) error {
	var we wireError
	if err := json.Unmarshal(body, &we); err != nil || we.Code == "" {
		return fmt.Errorf("%w: status %d: %s", ErrUnavailable, status, truncate(body))
	}
	rewrap := func(sentinel error) error {
		if rest, ok := strings.CutPrefix(we.Error, sentinel.Error()); ok {
			return fmt.Errorf("%w%s", sentinel, rest)
		}
		return fmt.Errorf("%w: %s", sentinel, we.Error)
	}
	switch we.Code {
	case "stale_generation":
		return rewrap(ErrStale)
	case "bad_segment", "parse":
		return rewrap(ErrBadSelection)
	case "empty_query":
		return ir.ErrEmptyQry
	case "no_index":
		return fmt.Errorf("%w: %s", dlse.ErrNoIndex, we.Error)
	case "unavailable":
		// The node could not answer (worker-slot wait cancelled, draining):
		// a replica can, so this is not an error of the query.
		return fmt.Errorf("%w: status %d: %s", ErrUnavailable, status, we.Error)
	default:
		return fmt.Errorf("transport: node error %d (%s): %s", status, we.Code, we.Error)
	}
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// get fetches path and decodes the JSON answer into out. Transport-level
// failures (dial, timeout) wrap ErrUnavailable.
func (r *Remote) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("%w: reading response: %v", ErrUnavailable, err)
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%w: decoding response: %v", ErrUnavailable, err)
	}
	return nil
}

// Manifest fetches the node's current segment manifest.
func (r *Remote) Manifest(ctx context.Context) (Manifest, error) {
	var m Manifest
	err := r.get(ctx, "/v2/manifest", &m)
	return m, err
}

// Health pings the node's liveness endpoint.
func (r *Remote) Health(ctx context.Context) error {
	var out struct {
		Status string `json:"status"`
	}
	if err := r.get(ctx, "/healthz", &out); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("%w: node reports status %q", ErrUnavailable, out.Status)
	}
	return nil
}

// intCSV renders segment ordinals or document IDs as a compact CSV query
// value.
func intCSV[T ~int | ~int32](vals []T) string {
	b := make([]byte, 0, 8*len(vals))
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Partial answers one partial query via GET /v2/partial.
func (r *Remote) Partial(ctx context.Context, q Query, sel Sel, expectGen int64) (*Partial, error) {
	params := url.Values{}
	if q.Keyword != "" {
		params.Set("kw", q.Keyword)
		if q.K > 0 {
			params.Set("k", strconv.Itoa(q.K))
		}
	}
	if q.Vector != "" {
		params.Set("vq", q.Vector)
		if q.K > 0 {
			params.Set("k", strconv.Itoa(q.K))
		}
	}
	if q.Scenes != "" {
		params.Set("kind", q.Scenes)
	}
	if len(q.Ranks) > 0 {
		params.Set("ranks", intCSV(q.Ranks))
	}
	if len(sel.Text) > 0 {
		params.Set("text", intCSV(sel.Text))
	}
	if len(sel.Video) > 0 {
		params.Set("video", intCSV(sel.Video))
	}
	if expectGen >= 0 {
		params.Set("gen", strconv.FormatInt(expectGen, 10))
	}
	var p Partial
	if err := r.get(ctx, "/v2/partial?"+params.Encode(), &p); err != nil {
		return nil, err
	}
	return &p, nil
}
