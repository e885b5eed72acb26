// Command mttkrp-serve is the serving daemon: a network listener speaking
// the compact binary wire format of internal/transport, over the
// concurrent scheduler's admission-controlled worker pool. Clients ship
// real tensor payloads (POST /v1/mttkrp, /v1/sparse-mttkrp, /v1/cp; GET
// /v1/stats, /healthz), per-client token-bucket quotas apply (-rps,
// -burst, -maxinflight, keyed by the X-API-Key header), and SIGTERM drains
// gracefully: admitted tickets finish, new submissions see 503, then the
// process exits 0. With -tensor-root DIR, clients may additionally POST
// by-reference requests (/v1/mttkrp-ref) naming a mappable tensor file
// inside DIR instead of shipping the tensor payload; the server maps the
// file and the kernels read the mapping in place, so its pages stay
// file-backed.
//
// Usage:
//
//	mttkrp-serve -listen ADDR [-workers N] [-minworkers N] [-maxactive N] [-nobatch] [-maxshare F]
//	    [-rps R] [-burst B] [-maxinflight BYTES] [-maxpayload BYTES] [-maxqueuedelay D] [-tensor-root DIR]
//
// Admission is cost-aware: budgets are weighted by request cost (tensor
// size × rank), the queue ages so small requests are not convoyed behind
// large ones, and running leases are rebalanced at kernel phase
// boundaries. Clients may send X-Cost-Hint and X-Priority
// (low|normal|high) headers; with -maxqueuedelay the daemon sheds (429 +
// Retry-After) requests whose projected queue delay exceeds it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"repro"
	"repro/internal/cli"
)

func main() {
	cli.Exit(run(os.Args[1:], os.Stderr))
}

// run is the daemon body with an explicit diagnostics stream so tests can
// drive it. It serves until SIGINT/SIGTERM and then drains, so admitted
// tickets finish. It prints the resolved listen address to stderr first:
// supervisors (and the e2e tests) parse it to discover a :0 port.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mttkrp-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 0, "server pool width (0 = GOMAXPROCS)")
	minWorkers := fs.Int("minworkers", 1, "admission floor: minimum workers per request")
	maxActive := fs.Int("maxactive", 0, "max concurrently executing requests (0 = workers/minworkers)")
	noBatch := fs.Bool("nobatch", false, "disable same-shape request batching")
	maxShare := fs.Float64("maxshare", 0, "cost-aware admission: cap one request's share of the pool width, 0 < v <= 1 (0 = no cap)")
	maxQueueDelay := fs.Duration("maxqueuedelay", 0, "shed requests (429) whose projected queue delay exceeds this (0 = queue everything)")
	listen := fs.String("listen", "", "serve the binary HTTP transport on this address, e.g. :8080 (required)")
	rps := fs.Float64("rps", 0, "per-client sustained request rate (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-client burst depth (0 = ceil(rps))")
	maxInflight := fs.Int64("maxinflight", 0, "per-client in-flight payload byte cap (0 = unlimited)")
	maxPayload := fs.Int64("maxpayload", 0, "largest accepted request payload in bytes (0 = 1 GiB)")
	tensorRoot := fs.String("tensor-root", "", "enable by-reference requests (/v1/mttkrp-ref) resolving tensor files inside this directory (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.UsageError{} // the FlagSet already printed message and usage
	}
	if fs.NArg() > 0 {
		return cli.UsageError{Msg: fmt.Sprintf("unexpected argument %q (requests arrive on the -listen address)", fs.Arg(0))}
	}
	if *listen == "" {
		return cli.UsageError{Msg: "need -listen ADDR (e.g. -listen :8080); see -h"}
	}

	// Listen before building the transport: a bad address then fails
	// before the scheduler's worker pool exists.
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err // a *net.OpError, which names the listen and the address
	}
	ts := repro.NewTransport(repro.TransportConfig{
		Serve: repro.ServerConfig{
			Workers:         *workers,
			MinWorkers:      *minWorkers,
			MaxActive:       *maxActive,
			DisableBatching: *noBatch,
			MaxShare:        *maxShare,
		},
		Quota: repro.QuotaConfig{
			RequestsPerSec:   *rps,
			Burst:            *burst,
			MaxInflightBytes: *maxInflight,
		},
		MaxPayloadBytes: *maxPayload,
		MaxQueueDelay:   *maxQueueDelay,
		TensorRoot:      *tensorRoot,
	})
	err = repro.ServeTransport(ts, l, func(a net.Addr) {
		fmt.Fprintf(stderr, "mttkrp-serve: listening on http://%s (%d workers)\n", a, ts.Workers())
	})
	st := ts.Stats()
	fmt.Fprintf(stderr, "mttkrp-serve: drained — %d requests (%d quota-rejected, %d shed, %d drain-rejected, %d bad, %d failed), %s in, %s out\n",
		st.Requests, st.QuotaRejected, st.ShedRejected, st.DrainRejected, st.BadRequests, st.Failed,
		cli.FormatBytes(st.BytesIn), cli.FormatBytes(st.BytesOut))
	return err
}
