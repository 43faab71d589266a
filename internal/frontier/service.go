// HTTP surface of the frontier subsystem: GET /frontier serves the
// dominance-filtered Pareto frontier as JSON so a caller can pick a
// time/energy operating point at request time instead of baking α in
// at plan time (cf. Lang et al.'s energy-efficient cluster design,
// PAPERS.md). Mount alongside the telemetry mux:
//
//	mux := reg.Handler()
//	src := frontier.StaticSource{Nodes: nodes, Total: total}
//	frontier.Mount(mux, frontier.NewService(src, frontier.Config{Telemetry: reg}))
//	http.ListenAndServe(addr, mux)
package frontier

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"pareto/internal/opt"
)

// StaticSource is the model set a Service enumerates over: the node
// models and the total data-unit count.
type StaticSource struct {
	Nodes []opt.NodeModel
	Total int
}

// maxAlphas bounds the α values one request may ask for, as a count
// (alphas=N) or as a list (alpha=a,b,c).
const maxAlphas = 100_000

// Service serves frontier enumerations over HTTP. Per-request query
// parameters override the base Config:
//
//	alphas=N          sample N uniform α values in [0,1]
//	alpha=a,b,c       sample an explicit α list (at most maxAlphas)
//	exact=1           every frontier vertex (Exact) instead of sampling
//	all=1             include dominated points (flagged) in the output
//
// A request whose parameters equal an earlier one's is answered from
// the reply memo (cache.go) with that reply's bytes; the
// X-Frontier-Cache header says hit or miss.
type Service struct {
	src  StaticSource
	cfg  Config
	memo *replyMemo
}

// NewService creates a frontier service over one model set. It copies
// the nodes, so changing the caller's slice afterwards changes no
// reply. cfg supplies defaults (telemetry, base α sweep) that requests
// can override.
func NewService(src StaticSource, cfg Config) *Service {
	src.Nodes = slices.Clone(src.Nodes)
	return &Service{src: src, cfg: cfg, memo: newReplyMemo(cfg.Telemetry)}
}

// Mount registers the service at /frontier on the given mux (typically
// the telemetry registry's Handler mux).
func Mount(mux *http.ServeMux, s *Service) {
	mux.Handle("/frontier", s)
}

// pointJSON is one frontier point on the wire.
type pointJSON struct {
	Alpha       float64   `json:"alpha"`
	Makespan    float64   `json:"makespan_s"`
	DirtyEnergy float64   `json:"dirty_energy_j"`
	Objectives  []float64 `json:"objectives"`
	Sizes       []int     `json:"sizes"`
	Warm        bool      `json:"warm"`
	Pivots      int       `json:"pivots"`
	Dominated   bool      `json:"dominated,omitempty"`
}

// statsJSON mirrors Stats with wall time in milliseconds.
type statsJSON struct {
	Solves      int     `json:"solves"`
	WarmSolves  int     `json:"warm_solves"`
	Pivots      int     `json:"pivots"`
	WarmPivots  int     `json:"warm_pivots"`
	Breakpoints int     `json:"breakpoints"`
	Dominated   int     `json:"dominated"`
	ElapsedMs   float64 `json:"elapsed_ms"`
}

// responseJSON is the /frontier reply.
type responseJSON struct {
	Nodes     int         `json:"nodes"`
	Total     int         `json:"total"`
	Exact     bool        `json:"exact"`
	Axes      []string    `json:"axes"`
	Points    []pointJSON `json:"points"`
	Dominated int         `json:"dominated"`
	Stats     statsJSON   `json:"stats"`
}

// ServeHTTP handles GET /frontier.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "frontier: GET only", http.StatusMethodNotAllowed)
		return
	}
	cfg := s.cfg
	q := r.URL.Query()
	exact := false
	if v := q.Get("exact"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "frontier: bad exact: "+err.Error(), http.StatusBadRequest)
			return
		}
		exact = b
	}
	if v := q.Get("alphas"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 || n > maxAlphas {
			http.Error(w, "frontier: alphas must be an integer in [2,100000]", http.StatusBadRequest)
			return
		}
		cfg.Alphas = UniformAlphas(n)
	}
	if v := q.Get("alpha"); v != "" {
		if strings.Count(v, ",") >= maxAlphas {
			http.Error(w, "frontier: alpha list longer than 100000", http.StatusBadRequest)
			return
		}
		var alphas []float64
		for _, part := range strings.Split(v, ",") {
			a, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				http.Error(w, "frontier: bad alpha list: "+err.Error(), http.StatusBadRequest)
				return
			}
			alphas = append(alphas, a)
		}
		cfg.Alphas = alphas
	}
	includeAll := false
	if v := q.Get("all"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "frontier: bad all: "+err.Error(), http.StatusBadRequest)
			return
		}
		includeAll = b
	}

	key := memoKey(exact, includeAll, cfg.Alphas)
	body, hit := s.memo.get(key)
	state := "hit"
	if !hit {
		state = "miss"
		var err error
		if body, err = encodeReply(s.src.Nodes, s.src.Total, exact, includeAll, cfg); err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrBadRequest) {
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
			return
		}
		s.memo.put(key, body)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Frontier-Cache", state)
	_, _ = w.Write(body) // a failed write is the caller hanging up
}

// encodeReply enumerates and renders the /frontier reply. Stats
// describe the enumeration that produced the points; the memo serves
// these bytes again as they are, so on a hit elapsed_ms is this run's.
func encodeReply(nodes []opt.NodeModel, total int, exact, includeAll bool, cfg Config) ([]byte, error) {
	var res *Result
	var err error
	if exact {
		res, err = Exact(nodes, total, cfg)
	} else {
		res, err = Sweep(nodes, total, cfg)
	}
	if err != nil {
		return nil, err
	}
	return renderReply(responseJSON{Nodes: len(nodes), Total: total, Exact: exact}, res, includeAll)
}

// renderReply completes resp from an enumeration and encodes it. It
// encodes into memory, so a reply that cannot be encoded (a NaN
// objective) is an error here, not a broken body after a 200.
func renderReply(resp responseJSON, res *Result, includeAll bool) ([]byte, error) {
	resp.Axes = objectiveNames
	resp.Dominated = res.Stats.Dominated
	resp.Stats = statsJSON{
		Solves:      res.Stats.Solves,
		WarmSolves:  res.Stats.WarmSolves,
		Pivots:      res.Stats.Pivots,
		WarmPivots:  res.Stats.WarmPivots,
		Breakpoints: res.Stats.Breakpoints,
		Dominated:   res.Stats.Dominated,
		ElapsedMs:   float64(res.Stats.Elapsed.Microseconds()) / 1000,
	}
	for _, p := range res.Points {
		if p.Dominated && !includeAll {
			continue
		}
		resp.Points = append(resp.Points, pointJSON{
			Alpha:       p.Alpha,
			Makespan:    p.Makespan,
			DirtyEnergy: p.DirtyEnergy,
			Objectives:  p.Objectives,
			Sizes:       p.Plan.Sizes,
			Warm:        p.Warm,
			Pivots:      p.Pivots,
			Dominated:   p.Dominated,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, fmt.Errorf("frontier: encode reply: %w", err)
	}
	return buf.Bytes(), nil
}
