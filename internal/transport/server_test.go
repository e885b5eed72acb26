package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// problem builds a deterministic MTTKRP instance.
func problem(seed int64, rank int, dims ...int) (*tensor.Dense, []mat.View) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Random(rng, dims...)
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), rank, rng)
	}
	return x, u
}

// startServer runs a transport server on an httptest listener and returns
// a connected client.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.sched.Close()
	})
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return s, c
}

// TestHTTPMTTKRPRoundTrip pins that a served MTTKRP equals the local
// kernel on the same inputs, for every method and a strided dst reuse.
func TestHTTPMTTKRPRoundTrip(t *testing.T) {
	s, c := startServer(t, Config{Serve: serve.Config{Workers: 2}})
	x, u := problem(42, 5, 9, 8, 7)
	for _, method := range []core.Method{core.MethodAuto, core.MethodOneStep, core.MethodTwoStep, core.MethodReorder} {
		for mode := 0; mode < x.Order(); mode++ {
			got, tm, err := c.MTTKRP(mat.View{}, x, u, mode, method)
			if err != nil {
				t.Fatalf("method %d mode %d: %v", method, mode, err)
			}
			want := core.Compute(method, x, u, mode, core.Options{})
			if !mat.ApproxEqual(got, want, 1e-13) {
				t.Fatalf("method %d mode %d: served result diverges from local kernel", method, mode)
			}
			if tm.Compute <= 0 {
				t.Fatalf("method %d mode %d: missing compute timing (%v)", method, mode, tm)
			}
		}
	}
	// Steady state: a retained dst receives the result without allocating.
	dst := mat.NewDense(x.Dim(1), 5)
	if _, _, err := c.MTTKRP(dst, x, u, 1, core.MethodAuto); err != nil {
		t.Fatal(err)
	}
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{})
	if !mat.ApproxEqual(dst, want, 1e-13) {
		t.Fatal("dst-reuse round trip diverges")
	}
	if st := s.Stats(); st.BytesIn == 0 || st.DecodeNs == 0 || st.ComputeNs == 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
}

// TestHTTPCPRoundTrip pins that a served CP run reproduces a local run
// with the same seed and budget, factors included.
func TestHTTPCPRoundTrip(t *testing.T) {
	_, c := startServer(t, Config{Serve: serve.Config{Workers: 2}})
	rng := rand.New(rand.NewSource(8))
	x := tensor.Random(rng, 12, 10, 8)
	res, tm, err := c.CP(x, 4, 6, 123)
	if err != nil {
		t.Fatal(err)
	}
	local, err := cpd.ALS(x, cpd.Config{Rank: 4, MaxIters: 6, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != local.Iters {
		t.Fatalf("served %d iters, local %d", res.Iters, local.Iters)
	}
	if diff := res.Fit - local.Fit; diff > 1e-10 || diff < -1e-10 {
		t.Fatalf("served fit %g, local %g", res.Fit, local.Fit)
	}
	for n := range local.K.Factors {
		if !mat.ApproxEqual(res.K.Factors[n], local.K.Factors[n], 1e-10) {
			t.Fatalf("served factor %d diverges from local run", n)
		}
	}
	if tm.Compute <= 0 || tm.Total < tm.Compute {
		t.Fatalf("implausible timing %+v", tm)
	}
}

// TestHTTPRejections covers the 4xx paths: malformed wire, wrong-endpoint
// op, oversized payload, rate quota, and byte quota.
func TestHTTPRejections(t *testing.T) {
	_, c := startServer(t, Config{
		Serve:           serve.Config{Workers: 2},
		Quota:           QuotaConfig{RequestsPerSec: 0.001, Burst: 2, MaxInflightBytes: 1 << 20},
		MaxPayloadBytes: 1 << 22,
	})
	x, u := problem(1, 3, 6, 5, 4)

	// Garbage body → 400.
	resp, err := c.HTTPClient.Post(c.BaseURL+"/v1/mttkrp", "application/octet-stream",
		bytes.NewReader([]byte("this is not a wire request at all........")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", resp.StatusCode)
	}

	// MTTKRP wire on the CP endpoint → 400.
	var wire bytes.Buffer
	h := &Header{Op: OpMTTKRP, Mode: 0, Rank: 3, Dims: x.Dims()}
	if err := WriteRequest(&wire, h, x, u); err != nil {
		t.Fatal(err)
	}
	resp, err = c.HTTPClient.Post(c.BaseURL+"/v1/cp", "application/octet-stream", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched op: %d, want 400", resp.StatusCode)
	}

	// Burst is exhausted by the two requests above (rate 0.001/s refills
	// nothing measurable); the third is rate-limited.
	_, _, err = c.MTTKRP(mat.View{}, x, u, 0, core.MethodAuto)
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited request: %v, want 429", err)
	}

	// A different principal is admitted — and its oversized payload draws
	// 413 (header-level rejection, before any payload read).
	big := NewClient(c.BaseURL)
	big.HTTPClient = c.HTTPClient
	big.APIKey = "big-tenant"
	bx := tensor.New(512, 512, 8) // 16 MiB payload > 4 MiB cap
	bu := []mat.View{mat.NewDense(512, 1), mat.NewDense(512, 1), mat.NewDense(8, 1)}
	_, _, err = big.MTTKRP(mat.View{}, bx, bu, 0, core.MethodAuto)
	if !errors.As(err, &he) || he.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized payload: %v, want 413", err)
	}

	// In-flight byte quota: a payload above the per-client cap → 429.
	_, c2 := startServer(t, Config{
		Serve: serve.Config{Workers: 2},
		Quota: QuotaConfig{MaxInflightBytes: 1 << 10},
	})
	_, _, err = c2.MTTKRP(mat.View{}, x, u, 0, core.MethodAuto) // ~4 KiB payload > 1 KiB cap
	if !errors.As(err, &he) || he.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("byte-quota request: %v, want 429", err)
	}
}

// TestHTTPAdmissionHeaders covers the client-side admission knobs: a
// well-formed X-Priority/X-Cost-Hint pair is accepted and served, and
// malformed values are rejected up front with 400 (counted as bad
// requests, before any payload decode).
func TestHTTPAdmissionHeaders(t *testing.T) {
	s, c := startServer(t, Config{Serve: serve.Config{Workers: 2}})
	x, u := problem(11, 4, 8, 7, 6)

	c.Priority = "high"
	c.CostHint = 1e6
	got, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto)
	if err != nil {
		t.Fatalf("prioritized request: %v", err)
	}
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{})
	if !mat.ApproxEqual(got, want, 1e-13) {
		t.Fatal("prioritized request diverges from local kernel")
	}

	bad := NewClient(c.BaseURL)
	bad.HTTPClient = c.HTTPClient
	bad.Priority = "urgent" // not a QoS class
	var he *HTTPError
	if _, _, err := bad.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto); !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus X-Priority: %v, want 400", err)
	}
	bad.Priority = ""
	bad.CostHint = -3 // client-side guard skips non-positive hints…
	if _, _, err := bad.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto); err != nil {
		t.Fatalf("non-positive CostHint must be dropped client-side, got %v", err)
	}
	// …but a hand-rolled bad header on an otherwise valid wire request is
	// a server-side 400 from the admission check itself (the wire header
	// decodes fine, so nothing else can produce the rejection).
	var wire bytes.Buffer
	if err := WriteRequest(&wire, &Header{Op: OpMTTKRP, Mode: 1, Rank: 4, Dims: x.Dims()}, x, u); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/mttkrp", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Cost-Hint", "not-a-float")
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad X-Cost-Hint: %d, want 400", resp.StatusCode)
	}
	if st := s.Stats(); st.BadRequests < 2 {
		t.Fatalf("stats %+v: header rejections not counted as bad requests", st)
	}
}

// TestHTTPCostHintClamped pins that X-Cost-Hint is a refinement, not a
// priority lever: a microscopic hint is clamped to within a bounded
// factor of the server's own model estimate before it reaches the aging
// queue, observable as the queued request's cost in the scheduler's
// grant table.
func TestHTTPCostHintClamped(t *testing.T) {
	s, c := startServer(t, Config{Serve: serve.Config{Workers: 2, MaxActive: 1}})
	x, u := problem(17, 4, 10, 9, 8)

	// Saturate the only admission slot so the hinted request queues long
	// enough to observe.
	blocker := s.sched.SubmitCP(serve.CPRequest{
		X:      x,
		Config: cpd.Config{Rank: 3, MaxIters: 1500, Tol: -1},
	})
	for {
		if st := s.sched.Stats(); st.Active >= 1 {
			break
		}
		select {
		case <-blocker.Done():
			t.Fatal("blocker finished before saturation was observed")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}

	liar := NewClient(c.BaseURL)
	liar.HTTPClient = c.HTTPClient
	liar.CostHint = 1e-300
	done := make(chan error, 1)
	go func() {
		_, _, err := liar.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto)
		done <- err
	}()
	estimate := s.sched.Model().MTTKRP(x.Dims(), 4)
	for {
		st := s.sched.Stats()
		var queuedCost float64
		for _, r := range st.Requests {
			if r.Kind == "mttkrp" && r.Budget == 0 {
				queuedCost = r.Cost
			}
		}
		if queuedCost != 0 {
			if queuedCost < estimate/16 {
				t.Fatalf("queued cost %g for hint 1e-300, want ≥ estimate/16 = %g (clamp defeated)", queuedCost, estimate/16)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("hinted request finished (%v) before it was observed queued", err)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("hinted request: %v", err)
	}
}

// TestHTTPShedMaxQueueDelay pins the 429-versus-queue decision: once the
// scheduler is saturated and its projected admission delay exceeds
// MaxQueueDelay, new requests are shed up front with Retry-After instead
// of queued — and served again after the backlog drains.
func TestHTTPShedMaxQueueDelay(t *testing.T) {
	s, c := startServer(t, Config{
		Serve:         serve.Config{Workers: 2, MaxActive: 1},
		MaxQueueDelay: time.Nanosecond, // any measurable backlog sheds
	})
	x, u := problem(13, 4, 10, 9, 8)

	// Seed the scheduler's service-rate estimate (ProjectedWait reports 0
	// until one batch has completed; with no estimate nothing sheds).
	if _, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// A ticket resolves before its batch leaves the active set: wait for
	// the warmup batch to retire, so the saturation loop below sees the
	// blocker and not the warmup.
	for deadline := time.Now().Add(5 * time.Second); s.sched.Stats().Active != 0; {
		if time.Now().After(deadline) {
			t.Fatal("warmup batch never left the active set")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Saturate the only admission slot with a long CP run whose declared
	// cost dwarfs the service rate, so any request's projected delay is
	// enormous while it runs.
	blocker := s.sched.SubmitCP(serve.CPRequest{
		X:        x,
		Config:   cpd.Config{Rank: 3, MaxIters: 1500, Tol: -1},
		CostHint: 1e12,
	})
	for {
		if st := s.sched.Stats(); st.Active >= 1 {
			break
		}
		select {
		case <-blocker.Done():
			t.Fatal("blocker finished before saturation was observed")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}

	var he *HTTPError
	_, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto)
	if !errors.As(err, &he) || he.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %v, want 429 shed", err)
	}
	if he.Message == "" || resp429RetryAfterMissing(he) {
		t.Fatalf("shed response carries no guidance: %+v", he)
	}
	if st := s.Stats(); st.ShedRejected < 1 {
		t.Fatalf("stats %+v: shed not counted", st)
	}
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}

	// Backlog drained: requests are admitted again.
	if _, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto); err != nil {
		t.Fatalf("post-drain request: %v", err)
	}
}

// resp429RetryAfterMissing is a placeholder check: HTTPError does not
// retain headers, so the Retry-After presence is pinned via the message
// text the handler writes alongside it.
func resp429RetryAfterMissing(he *HTTPError) bool {
	return !strings.Contains(he.Message, "projected queue delay")
}

// TestHTTPGracefulDrain pins the drain contract end to end over a real
// listener: a request in flight when Shutdown begins completes
// successfully, requests arriving during the drain see 503, and Shutdown
// returns only after the scheduler is idle.
func TestHTTPGracefulDrain(t *testing.T) {
	s := NewServer(Config{Serve: serve.Config{Workers: 2}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	c := NewClient("http://" + l.Addr().String())

	x, u := problem(5, 4, 16, 14, 12)
	if err := c.Healthy(); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}

	// Saturate the server with requests racing the shutdown; every one
	// must either complete correctly or fail with the retryable 503 —
	// nothing hangs, nothing returns a wrong answer.
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{})
	var wg sync.WaitGroup
	results := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto)
			if err == nil && !mat.ApproxEqual(m, want, 1e-13) {
				err = errors.New("drain-raced result diverges")
			}
			results[i] = err
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let some requests reach the server
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	completed := 0
	for i, err := range results {
		var he *HTTPError
		switch {
		case err == nil:
			completed++
		case errors.As(err, &he) && he.StatusCode == http.StatusServiceUnavailable:
			// refused by the drain — the retryable path
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("request %d hung through the drain", i)
		default:
			// Connection-level errors are possible for requests that hit
			// the closed listener; they must at least be errors, which
			// they are by construction here.
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
	// The scheduler is released: a late direct submission is refused.
	if err := s.sched.SubmitMTTKRP(serve.MTTKRPRequest{X: x, Factors: u, Mode: 0}).Err(); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain submission: %v, want ErrDraining", err)
	}
	t.Logf("drain race: %d/%d completed, rest rejected cleanly", completed, len(results))
}

// TestRetryAfterCeiledToWholeSeconds pins the 429 shed hint's rounding:
// sub-second projected waits must round UP to 1 — a truncated "0" tells a
// well-behaved client to retry immediately, defeating the shed — and
// exact whole-second waits must not gain a spurious extra second.
func TestRetryAfterCeiledToWholeSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want int64
	}{
		{time.Nanosecond, 1},
		{time.Millisecond, 1},
		{500 * time.Millisecond, 1}, // the sub-second case the truncation bug zeroed
		{time.Second, 1},
		{time.Second + time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2}, // the floor+1 bug reported 3 here
		{2*time.Second + 500*time.Millisecond, 3},
	} {
		if got := retryAfterSeconds(tc.wait); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}
}

// TestRetryAfterSubSecondShed drives the sub-second shed end to end
// through the HTTP handler: a saturated scheduler whose projected wait
// can be well under a second must answer 429 with a Retry-After the
// client can obey — an integer ≥ 1, never the truncated "0" that tells a
// well-behaved client to retry immediately.
func TestRetryAfterSubSecondShed(t *testing.T) {
	s, c := startServer(t, Config{
		Serve:         serve.Config{Workers: 2, MaxActive: 1},
		MaxQueueDelay: time.Nanosecond, // any measurable backlog sheds
	})
	x, u := problem(29, 4, 8, 7, 6)
	// Seed the service-rate estimate (ProjectedWait reports 0 until one
	// batch has completed; with no estimate nothing sheds).
	if _, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	// Saturate the only admission slot so every projected wait is
	// positive while the blocker runs.
	blocker := s.sched.SubmitCP(serve.CPRequest{
		X:        x,
		Config:   cpd.Config{Rank: 2, MaxIters: 500, Tol: -1},
		CostHint: 1e9,
	})
	for {
		if st := s.sched.Stats(); st.Active >= 1 {
			break
		}
		select {
		case <-blocker.Done():
			t.Skip("blocker finished before saturation was observed")
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}

	var body bytes.Buffer
	h := &Header{Op: OpMTTKRP, Mode: 1, Rank: 4, Dims: x.Dims()}
	if err := WriteRequest(&body, h, x, u); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mttkrp", &body))
	if rec.Code != http.StatusTooManyRequests {
		t.Skipf("status %d: backlog drained before the shed could be observed", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.ParseInt(ra, 10, 64)
	if err != nil || secs < 1 {
		t.Fatalf("shed Retry-After = %q, want an integer >= 1", ra)
	}
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
}
