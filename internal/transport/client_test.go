package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cpd"
	"repro/internal/mat"
)

// cannedServer answers every request with body, after draining the
// request, and returns a client connected to it.
func cannedServer(t *testing.T, body []byte) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return c
}

// matrixResponse encodes a matrix response header declaring rows × cols,
// followed by floats zero values.
func matrixResponse(rows, cols uint32, floats int) []byte {
	b := make([]byte, 8+8*floats)
	binary.LittleEndian.PutUint32(b[0:], rows)
	binary.LittleEndian.PutUint32(b[4:], cols)
	return b
}

// TestClientRejectsHugeResultHeader pins that a response header cannot
// size the client's memory: a 2^20 × 2^12 declaration (32 GiB of float64s)
// with no data behind it is an error, and the client allocates next to
// nothing on the way.
func TestClientRejectsHugeResultHeader(t *testing.T) {
	c := cannedServer(t, matrixResponse(1<<20, 1<<12, 0))
	x, u := problem(1, 2, 4, 3, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := c.MTTKRP(mat.View{}, x, u, 1, core.MethodAuto)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge result header accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("client allocated %d bytes on a bogus header, want < 1 MiB", grew)
	}
}

// TestClientRejectsWrongResultShape pins that every MTTKRP method accepts
// only the Dims[mode] × Rank result it asked for: one extra row, data
// included, is an error. The right shape lands in a retained dst.
func TestClientRejectsWrongResultShape(t *testing.T) {
	x, u := problem(2, 2, 4, 3, 2)
	sx, su := sparseProblem(3, 0.5, 2, 4, 3, 2)
	ref := TensorRef{Path: "x.dsnt"}
	methods := map[string]func(*Client, mat.View) (mat.View, Timing, error){
		"dense": func(c *Client, dst mat.View) (mat.View, Timing, error) {
			return c.MTTKRP(dst, x, u, 1, core.MethodAuto)
		},
		"by-ref": func(c *Client, dst mat.View) (mat.View, Timing, error) {
			return c.MTTKRPByRef(dst, ref, x.Dims(), u, 1, core.MethodAuto)
		},
		"sparse": func(c *Client, dst mat.View) (mat.View, Timing, error) {
			return c.SparseMTTKRP(dst, sx, su, 1, core.MethodAuto)
		},
	}
	wrong := cannedServer(t, matrixResponse(3+1, 2, (3+1)*2))
	right := cannedServer(t, matrixResponse(3, 2, 3*2))
	for name, send := range methods {
		if m, _, err := send(wrong, mat.View{}); err == nil {
			t.Errorf("%s: %dx%d result for a 3x2 request accepted", name, m.R, m.C)
		}
		dst := mat.NewDense(3, 2)
		m, _, err := send(right, dst)
		if err != nil {
			t.Fatalf("%s: right-shaped result: %v", name, err)
		}
		if &m.Data[0] != &dst.Data[0] {
			t.Errorf("%s: result did not land in the retained dst", name)
		}
	}
}

// TestClientRejectsWrongCPShape pins the same rule for CP: a result whose
// factor row counts differ from the request's dims is an error.
func TestClientRejectsWrongCPShape(t *testing.T) {
	k := cpd.RandomKTensor(rand.New(rand.NewSource(4)), []int{4, 3, 2 + 1}, 2)
	var body bytes.Buffer
	if err := WriteKTensor(&body, k); err != nil {
		t.Fatal(err)
	}
	c := cannedServer(t, body.Bytes())
	x, _ := problem(5, 2, 4, 3, 2)
	if res, _, err := c.CP(x, 2, 1, 0); err == nil {
		t.Fatalf("CP result with factor rows %d accepted for dims %v", res.K.Factors[2].R, x.Dims())
	}
}
