package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// writeTensorFile writes a deterministic random tensor into root/name in
// the mappable format and returns the tensor plus the reference a client
// would ship for it.
func writeTensorFile(t *testing.T, root, name string, seed int64, dims ...int) (*tensor.Dense, TensorRef) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Random(rng, dims...)
	path := filepath.Join(root, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tensor.WriteDenseFile(path, x); err != nil {
		t.Fatal(err)
	}
	info, err := tensor.StatDense(path)
	if err != nil {
		t.Fatal(err)
	}
	return x, RefFor(info, name)
}

// TestWireByRefHeaderRoundTrip pins the v3 header encoding: the reference
// block (identity triple + path) survives a write/read cycle, and the
// payload accounting excludes the tensor floats.
func TestWireByRefHeaderRoundTrip(t *testing.T) {
	h := &Header{
		Op: OpMTTKRPByRef, Method: core.MethodTwoStep, Mode: 1, Rank: 5,
		Dims: []int{9, 8, 7},
		Ref:  TensorRef{Path: "sub/x.dsnt", MTime: 1234567891011, Size: 42000, Checksum: 0xdeadbeefcafe},
	}
	if err := h.Validate(0); err != nil {
		t.Fatal(err)
	}
	if got, want := h.PayloadFloats(), (9+8+7)*5; got != want {
		t.Fatalf("PayloadFloats = %d, want %d (factors only — the tensor stays server-side)", got, want)
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != h.Op || got.Ref != h.Ref || got.Rank != h.Rank || got.Mode != h.Mode {
		t.Fatalf("round trip mangled the header: %+v vs %+v", got, h)
	}
	if len(got.Dims) != 3 || got.Dims[0] != 9 || got.Dims[1] != 8 || got.Dims[2] != 7 {
		t.Fatalf("round trip mangled dims: %v", got.Dims)
	}

	// Validate must reject structurally hostile references before any
	// payload sizing happens.
	for _, bad := range []TensorRef{
		{Path: ""},
		{Path: strings.Repeat("a", MaxRefPath+1)},
		{Path: "x\x00y"},
	} {
		hb := *h
		hb.Ref = bad
		if err := hb.Validate(0); err == nil {
			t.Fatalf("Validate accepted hostile ref path %q", bad.Path)
		}
	}
}

// TestHTTPMTTKRPByRefRoundTrip is the by-reference transport acceptance: a
// request maps the server-resident file, computes on the mapping in place
// and matches the local kernel on a heap tensor exactly, while only the
// factor matrices cross the wire.
func TestHTTPMTTKRPByRefRoundTrip(t *testing.T) {
	root := t.TempDir()
	x, ref := writeTensorFile(t, root, "sub/x.dsnt", 31, 12, 10, 8)
	s, c := startServer(t, Config{Serve: serve.Config{Workers: 2}, TensorRoot: root})

	rng := rand.New(rand.NewSource(32))
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), 5, rng)
	}
	for mode := 0; mode < x.Order(); mode++ {
		got, tm, err := c.MTTKRPByRef(mat.View{}, ref, x.Dims(), u, mode, core.MethodAuto)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		want := core.Compute(core.MethodAuto, x, u, mode, core.Options{})
		if !mat.ApproxEqual(got, want, 1e-13) {
			t.Fatalf("mode %d: by-ref result diverges from local kernel", mode)
		}
		if tm.Compute <= 0 {
			t.Fatalf("mode %d: missing compute timing (%v)", mode, tm)
		}
	}
	// Steady state: a retained dst receives the result without allocating.
	dst := mat.NewDense(x.Dim(1), 5)
	if _, _, err := c.MTTKRPByRef(dst, ref, x.Dims(), u, 1, core.MethodAuto); err != nil {
		t.Fatal(err)
	}
	want := core.Compute(core.MethodAuto, x, u, 1, core.Options{})
	if !mat.ApproxEqual(dst, want, 1e-13) {
		t.Fatal("dst-reuse by-ref round trip diverges")
	}
	st := s.Stats()
	if st.ByRefRequests != int64(x.Order()+1) || st.RefRejected != 0 {
		t.Fatalf("stats %+v: want %d by-ref requests, 0 rejected", st, x.Order()+1)
	}
	// The decode accounting must reflect the by-ref win: BytesIn counts
	// only the factor payload, not the tensor.
	factorBytes := int64(0)
	for _, f := range u {
		factorBytes += 8 * int64(f.R*f.C)
	}
	if st.BytesIn != int64(x.Order()+1)*factorBytes {
		t.Fatalf("BytesIn = %d, want %d (factors only)", st.BytesIn, int64(x.Order()+1)*factorBytes)
	}
}

// TestHTTPByRefSandbox covers the resolution failure matrix: escapes are
// 400, anything unreadable or outside the root is 404 (indistinguishable
// from absent by design), and identity drift is 409.
func TestHTTPByRefSandbox(t *testing.T) {
	root := t.TempDir()
	outside := t.TempDir()
	x, ref := writeTensorFile(t, root, "x.dsnt", 41, 9, 8, 7)
	_, outsideRef := writeTensorFile(t, outside, "secret.dsnt", 42, 9, 8, 7)
	if err := os.Symlink(filepath.Join(outside, "secret.dsnt"), filepath.Join(root, "link.dsnt")); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	s, c := startServer(t, Config{Serve: serve.Config{Workers: 2}, TensorRoot: root})

	rng := rand.New(rand.NewSource(43))
	u := make([]mat.View, x.Order())
	for k := range u {
		u[k] = mat.RandomDense(x.Dim(k), 4, rng)
	}
	expect := func(label string, ref TensorRef, dims []int, wantStatus int) {
		t.Helper()
		_, _, err := c.MTTKRPByRef(mat.View{}, ref, dims, u, 1, core.MethodAuto)
		var he *HTTPError
		if !errors.As(err, &he) {
			t.Fatalf("%s: err = %v, want an HTTP rejection", label, err)
		}
		if he.StatusCode != wantStatus {
			t.Fatalf("%s: status %d (%s), want %d", label, he.StatusCode, he.Message, wantStatus)
		}
	}

	escape := ref
	escape.Path = "../escape.dsnt"
	expect("dot-dot escape", escape, x.Dims(), 400)

	missing := ref
	missing.Path = "absent.dsnt"
	expect("missing file", missing, x.Dims(), 404)

	link := outsideRef
	link.Path = "link.dsnt"
	expect("symlink escaping the root", link, x.Dims(), 400)

	stale := ref
	stale.Size++ // the client observed a different version
	expect("identity mismatch", stale, x.Dims(), 409)

	// Declared dims that disagree with the file's header (factors must
	// match the declaration to clear client-side validation).
	wrongDims := []int{9, 8, 6}
	saved := u[2]
	u[2] = mat.RandomDense(6, 4, rng)
	expect("dims mismatch", ref, wrongDims, 409)
	u[2] = saved

	// Rewriting the file under the same name invalidates the original
	// reference: size changes (or mtime, on coarse-grained filesystems).
	f, err := os.OpenFile(filepath.Join(root, "x.dsnt"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	expect("file rewritten after stat", ref, x.Dims(), 409)

	st := s.Stats()
	if st.RefRejected != 6 || st.ByRefRequests != 6 {
		t.Fatalf("stats %+v: want all 6 probes counted and rejected", st)
	}

	// No tensor root: the endpoint is disabled outright.
	_, c2 := startServer(t, Config{Serve: serve.Config{Workers: 2}})
	_, _, err = c2.MTTKRPByRef(mat.View{}, ref, x.Dims(), u, 1, core.MethodAuto)
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 404 {
		t.Fatalf("no-root request: err = %v, want 404", err)
	}
}
