package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro"
	"repro/internal/serve"
)

// normalize reduces a /v2/search response body to the part that must be
// equal wherever the answer was computed: the per-request fields (tookMs,
// cached) and the per-process ones (snapshot, and the cursor that encodes
// it) are dropped, and the rest is re-encoded with sorted keys.
func normalize(body []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", err
	}
	for _, k := range []string{"tookMs", "cached", "snapshot", "cursor"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	return string(out), err
}

// oracle answers the benchmark's queries in process, through the public
// library API on the same inputs the daemons were given.
type oracle struct {
	dl *repro.DigitalLibrary
}

// newOracle builds the in-process library: the corpus's site and the
// meta-index file cobraindex wrote.
func newOracle(c *corpus, metaPath string) (*oracle, error) {
	lib, err := repro.LoadLibraryFile(metaPath)
	if err != nil {
		return nil, err
	}
	dl, err := repro.NewDigitalLibraryWith(c.site, lib, repro.LibraryOptions{TextSegments: textSegments})
	if err != nil {
		return nil, err
	}
	return &oracle{dl: dl}, nil
}

// answer renders the oracle's answer to a /v2/search query string in the
// daemon's response shape, normalized.
func (o *oracle) answer(query string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, "/v2/search?"+query, nil)
	if err != nil {
		return "", err
	}
	q, cursor, limit, _, err := serve.ParseSearchQuery(req)
	if err != nil {
		return "", err
	}
	rs, err := o.dl.Search(context.Background(), q, repro.WithLimit(limit), repro.WithCursor(cursor))
	if err != nil {
		return "", err
	}
	rec := httptest.NewRecorder()
	serve.WriteSearchResult(rec, rs, false, false, 0)
	return normalize(rec.Body.Bytes())
}

// verify compares one response body with the oracle's answer.
func (o *oracle) verify(query string, body []byte) error {
	got, err := normalize(body)
	if err != nil {
		return fmt.Errorf("%s: bad response: %v", query, err)
	}
	want, err := o.answer(query)
	if err != nil {
		return fmt.Errorf("%s: oracle: %v", query, err)
	}
	if got != want {
		return fmt.Errorf("%s: answer differs from the in-process library\n got %.300s\nwant %.300s", query, got, want)
	}
	return nil
}

// hasScenes reports whether a normalized combined-query answer joined at
// least one video scene onto some item.
func hasScenes(body []byte) bool {
	var r struct {
		Items []struct {
			Scenes []json.RawMessage `json:"scenes"`
		} `json:"items"`
	}
	if json.Unmarshal(body, &r) != nil {
		return false
	}
	for _, it := range r.Items {
		if len(it.Scenes) > 0 {
			return true
		}
	}
	return false
}
