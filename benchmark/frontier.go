package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pareto/internal/frontier"
	"pareto/internal/opt"
	"pareto/internal/telemetry"
)

const frontierClients = 2

// frontierMix is the fixed request mix, cycled: three wide sweeps, one
// narrow sweep, one single operating point and one exact bisection.
var frontierMix = []string{"alphas=41", "alphas=41", "alphas=41", "alphas=11", "alpha=0.995", "exact=1"}

var frontierWorkload = workload{
	name:  wFrontier,
	why:   "Warm lp.Solver.ReSolve chains, exact bisection, the dominance filter and JSON/HTTP under two closed-loop callers: no other workload runs this code, and planner, store and replan do nothing here.",
	reps:  func(sizes, int) int { return 1 },
	setup: setupFrontier,
}

// frontierBody is the part of a /frontier reply the benchmark reads.
type frontierBody struct {
	Points []struct {
		Alpha       float64 `json:"alpha"`
		Makespan    float64 `json:"makespan_s"`
		DirtyEnergy float64 `json:"dirty_energy_j"`
		Sizes       []int   `json:"sizes"`
	} `json:"points"`
	Stats struct {
		Solves     int `json:"solves"`
		WarmSolves int `json:"warm_solves"`
		Pivots     int `json:"pivots"`
		WarmPivots int `json:"warm_pivots"`
		Dominated  int `json:"dominated"`
	} `json:"stats"`
}

// frontierRef is what every reply to one URL must equal: the body with
// its elapsed_ms cut out, and the parsed counts.
type frontierRef struct {
	stripped []byte
	body     frontierBody
}

type frontierUnit struct {
	r       *run
	base    string
	srv     *http.Server
	served  chan error
	clients []*http.Client
	// order is the seeded request order: indices into frontierMix.
	order []int
	refs  map[string]*frontierRef
}

// spanTransport is the http.RoundTripper wrapper: one span per round
// trip (request written to response headers read).
type spanTransport struct {
	r    *run
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.r.tr.start(t.r.cur, "frontier.http", t.r.rep)
	resp, err := t.base.RoundTrip(req)
	sp.end()
	return resp, err
}

func setupFrontier(r *run) (unit, error) {
	nodes := frontier.PaperModels(r.sz.FrontierNodes)
	cfg := frontier.Config{Workers: 1}
	if r.traced {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	mux := http.NewServeMux()
	frontier.Mount(mux, frontier.NewService(frontier.StaticSource{Nodes: nodes, Total: r.sz.FrontierTotal}, cfg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	u := &frontierUnit{r: r, base: "http://" + ln.Addr().String() + "/frontier?", srv: &http.Server{Handler: mux},
		served: make(chan error, 1), refs: map[string]*frontierRef{}}
	go func() { u.served <- u.srv.Serve(ln) }()
	for i := 0; i < frontierClients; i++ {
		u.clients = append(u.clients, &http.Client{
			Transport: &spanTransport{r: r, base: &http.Transport{MaxIdleConnsPerHost: 1}},
			Timeout:   30 * time.Second,
		})
	}
	n := r.loopOps(r.sz.FrontierRequests, r.sz.FrontierTracedRequests)
	u.order = make([]int, n)
	for i := range u.order {
		u.order[i] = i % len(frontierMix)
	}
	rand.New(rand.NewSource(r.seed)).Shuffle(n, func(a, b int) { u.order[a], u.order[b] = u.order[b], u.order[a] })

	// One warm-up request per distinct URL, checked in depth against the
	// in-process enumeration; timed requests are then compared with it
	// byte for byte.
	for _, q := range frontierMix {
		if u.refs[q] != nil {
			continue
		}
		body, err := u.get(u.clients[0], q)
		r.acct.op("GET "+q, err)
		if err != nil {
			u.close()
			return nil, err
		}
		ref := &frontierRef{}
		if ref.stripped, _, err = stripElapsed(body); err == nil {
			err = json.Unmarshal(body, &ref.body)
		}
		if err != nil {
			u.close()
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		err = checkFrontier(q, &ref.body, nodes, r.sz.FrontierTotal)
		r.acct.check("frontier.reference", err == nil, "%s: %v", q, err)
		u.refs[q] = ref
	}
	return u, nil
}

// get fetches one query and reads the whole reply; anything but a 200
// is an error.
func (u *frontierUnit) get(c *http.Client, query string) ([]byte, error) {
	resp, err := c.Get(u.base + query)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, err
}

var elapsedKey = []byte(`"elapsed_ms": `)

// stripElapsed cuts the elapsed_ms value, the only part of a reply that
// may differ between two requests of one URL, out of the body and
// returns it.
func stripElapsed(body []byte) ([]byte, float64, error) {
	i := bytes.Index(body, elapsedKey)
	if i < 0 {
		return nil, 0, errors.New("reply has no elapsed_ms")
	}
	start := i + len(elapsedKey)
	end := start
	for end < len(body) && body[end] != '\n' && body[end] != ',' && body[end] != '}' {
		end++
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(body[start:end])), 64)
	if err != nil {
		return nil, 0, fmt.Errorf("elapsed_ms: %w", err)
	}
	return append(append([]byte(nil), body[:start]...), body[end:]...), v, nil
}

// checkFrontier holds one reply against the in-process enumeration of
// the same query: it has points, they are monotone in α (makespan
// falls, dirty energy rises), and they equal frontier.Sweep's or
// frontier.Exact's non-dominated points.
func checkFrontier(query string, got *frontierBody, nodes []opt.NodeModel, total int) error {
	cfg := frontier.Config{Workers: 1}
	var res *frontier.Result
	var err error
	switch query {
	case "alphas=41":
		cfg.Alphas = frontier.UniformAlphas(41)
		res, err = frontier.Sweep(nodes, total, cfg)
	case "alphas=11":
		cfg.Alphas = frontier.UniformAlphas(11)
		res, err = frontier.Sweep(nodes, total, cfg)
	case "alpha=0.995":
		cfg.Alphas = []float64{0.995}
		res, err = frontier.Sweep(nodes, total, cfg)
	case "exact=1":
		res, err = frontier.Exact(nodes, total, cfg)
	default:
		err = fmt.Errorf("no reference for query %q", query)
	}
	if err != nil {
		return err
	}
	want := res.Frontier()
	if len(got.Points) == 0 || len(got.Points) != len(want) {
		return fmt.Errorf("%d points, in-process enumeration has %d", len(got.Points), len(want))
	}
	for i, p := range got.Points {
		w := want[i]
		if p.Alpha != w.Alpha || p.Makespan != w.Makespan || p.DirtyEnergy != w.DirtyEnergy || !reflect.DeepEqual(p.Sizes, w.Plan.Sizes) {
			return fmt.Errorf("point %d differs from the in-process enumeration", i)
		}
		if i > 0 && (p.Makespan > got.Points[i-1].Makespan || p.DirtyEnergy < got.Points[i-1].DirtyEnergy) {
			return fmt.Errorf("point %d breaks monotonicity in α", i)
		}
	}
	if got.Stats.Solves != res.Stats.Solves || got.Stats.Pivots != res.Stats.Pivots {
		return fmt.Errorf("solve effort %+v differs from the in-process %+v", got.Stats, res.Stats)
	}
	return nil
}

func (u *frontierUnit) rep(int) (sample, error) {
	r := u.r
	type result struct{ latMs, elapsedMs float64 }
	results := make([]result, len(u.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range u.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			// A closed loop: the caller sends its next request only
			// after it has read the previous reply.
			for i := int(next.Add(1)) - 1; i < len(u.order); i = int(next.Add(1)) - 1 {
				q := frontierMix[u.order[i]]
				var body []byte
				d, err := r.leaf("frontier.request", func() error {
					var err error
					body, err = u.get(c, q)
					return err
				})
				r.acct.op("GET "+q, err)
				if err != nil {
					continue
				}
				stripped, elapsed, err := stripElapsed(body)
				ok := err == nil && bytes.Equal(stripped, u.refs[q].stripped)
				r.acct.check("frontier.body", ok, "%s: reply differs from the first reply to this URL", q)
				results[i] = result{ms(d), elapsed}
			}
		}(c)
	}
	wg.Wait()

	s := sample{"_records": float64(len(u.order))}
	var lat, elapsed, overhead []float64
	var solves, warm, pivots, warmPivots, points, dominated int
	for i, res := range results {
		if res.latMs == 0 {
			continue // failed, and counted as such
		}
		lat = append(lat, res.latMs)
		elapsed = append(elapsed, res.elapsedMs)
		overhead = append(overhead, res.latMs-res.elapsedMs)
		b := &u.refs[frontierMix[u.order[i]]].body
		solves += b.Stats.Solves
		warm += b.Stats.WarmSolves
		pivots += b.Stats.Pivots
		warmPivots += b.Stats.WarmPivots
		points += len(b.Points)
		dominated += b.Stats.Dominated
	}
	if len(lat) == 0 {
		return nil, errors.New("every request failed")
	}
	s["op_ms_p50"] = percentile(lat, 50)
	s["op_ms_p90"] = percentile(lat, 90)
	s["frontier.elapsed_ms_p50"] = percentile(elapsed, 50)
	s["frontier.http_overhead_ms_p50"] = percentile(overhead, 50)
	s["frontier.solves"] = float64(solves)
	s["frontier.warm_solves"] = float64(warm)
	s["frontier.pivots"] = float64(pivots)
	s["frontier.warm_pivots"] = float64(warmPivots)
	s["frontier.points"] = float64(points)
	s["frontier.dominated"] = float64(dominated)
	return s, nil
}

func (u *frontierUnit) audit(int, sample) error { return nil }

func (u *frontierUnit) close() error {
	for _, c := range u.clients {
		c.CloseIdleConnections()
	}
	err := u.srv.Close()
	if serveErr := <-u.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}
