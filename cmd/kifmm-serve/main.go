// Command kifmm-serve runs the FMM evaluation service: an HTTP server
// holding an LRU cache of prepared evaluation plans (octree +
// translation operators), so many callers amortize the expensive setup
// the paper describes across their interaction evaluations.
//
// API:
//
//	POST /v1/plans                     register geometry, get a plan id
//	POST /v1/plans/{id}/evaluate       densities -> potentials
//	POST /v1/plans/{id}/evaluate_batch many density vectors in one sweep
//	POST /v1/evaluate                  one-shot register + evaluate
//	POST /v1/uploads                   create a chunked geometry upload
//	POST /v1/uploads/{id}              append one binary chunk
//	GET  /v1/uploads/{id}              committed prefix (resume offset)
//	GET  /healthz                      liveness
//	GET  /metrics                      Prometheus text exposition
//	GET  /v1/evals/recent              span trees of recent evaluations
//	GET  /debug/pprof/...              runtime profiles (with -pprof)
//
// Bulk arrays cross the wire as JSON by default or as binary frames
// (Content-Type / Accept: application/x-kifmm-frame; see README "Wire
// format"); evaluation POSTs honor an Idempotency-Key header so client
// retries never double-evaluate. In-flight chunked uploads are bounded
// in aggregate by -upload-bytes.
//
// Evaluation requests accept ?trace=1 to echo the evaluation's span
// tree in the response. Structured request logs (slog, one line per
// request with a request id) go to stderr; evaluations slower than
// -slow-eval are logged at WARN.
//
// Every request runs under its own context (client disconnects cancel
// the in-flight FMM sweep) plus the optional -eval-timeout deadline;
// errors carry machine-readable kifmm taxonomy codes mapped onto HTTP
// 400/404/413/499/504/500.
//
// Scheduling is adaptive: all requests share one elastic pool of
// -max-workers lanes. An evaluation on an idle server fans out across
// every lane; as concurrent requests arrive, running evaluations shed
// lanes at chunk boundaries down to one each, and requests that cannot
// get a lane queue. Granted widths are reported per response
// (granted_lanes) and aggregated under /metrics (kifmm_lanes_in_use,
// kifmm_lanes_granted_total, kifmm_granted_width_total).
//
// Shutdown is graceful: on SIGINT/SIGTERM the listener closes and
// in-flight requests get -drain-timeout to finish; past the drain
// deadline their contexts are cancelled, which aborts the running
// evaluations within one FMM pass so the process exits promptly instead
// of waiting out a long sweep. A second signal skips the drain.
//
// Cluster mode (see README "Cluster mode"): -role coordinator makes
// this process fan one-shot evaluations of at least -cluster-min-points
// sources across connected workers over TCP; -role worker joins a
// coordinator (-join) and runs one KIFMM rank of every job over its
// elastic lanes (-max-workers) — workers serve no HTTP API, so several
// can share a machine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 32, "maximum number of cached plans (LRU)")
	cacheBytes := flag.Int64("cache-bytes", 0, "bound the summed estimated plan footprint in bytes (0 = count bound only)")
	maxWorkers := flag.Int("max-workers", runtime.GOMAXPROCS(0), "elastic pool capacity: total worker lanes across all concurrent evaluations (one idle request may use them all)")
	evalTimeout := flag.Duration("eval-timeout", 0, "per-request deadline; requests exceeding it fail with 504 and the evaluation stops (0 = none)")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "HTTP read timeout")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "HTTP write timeout")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain; in-flight evaluations past it are cancelled")
	pprofOn := flag.Bool("pprof", false, "serve runtime profiles under GET /debug/pprof/")
	slowEval := flag.Duration("slow-eval", time.Second, "log requests slower than this at WARN (0 = never)")
	traceRing := flag.Int("trace-ring", 0, "evaluations retained for GET /v1/evals/recent (0 = default 64)")
	uploadBytes := flag.Int64("upload-bytes", 0, "aggregate budget for in-flight chunked geometry uploads (0 = default 1 GiB)")
	role := flag.String("role", "", `cluster role: "coordinator" fans large one-shot evaluations across joined workers, "worker" joins a coordinator; empty = single node`)
	join := flag.String("join", "", "coordinator cluster address a worker dials (-role worker)")
	clusterListen := flag.String("cluster-listen", "", "cluster listener: where the coordinator accepts workers (default 127.0.0.1:7946) or where a worker accepts rank-to-rank mesh traffic (default 127.0.0.1:0)")
	clusterMinPoints := flag.Int("cluster-min-points", 0, "source count at which one-shot evaluations fan out across the cluster (0 = default 8192; -role coordinator)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "cluster heartbeat interval; a worker silent for two intervals is dropped")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("kifmm-serve"))
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var coord *cluster.Coordinator
	var worker *cluster.Worker
	switch *role {
	case "":
	case "coordinator":
		listen := *clusterListen
		if listen == "" {
			listen = "127.0.0.1:7946"
		}
		var err error
		coord, err = cluster.StartCoordinator(context.Background(), listen, cluster.CoordinatorConfig{
			Heartbeat: *heartbeat, Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster coordinator:", err)
			os.Exit(1)
		}
		defer coord.Close()
		fmt.Printf("cluster coordinator accepting workers on %s (heartbeat %v)\n", coord.Addr(), *heartbeat)
	case "worker":
		if *join == "" {
			fmt.Fprintln(os.Stderr, "-role worker requires -join <coordinator cluster address>")
			os.Exit(1)
		}
		var err error
		worker, err = cluster.StartWorker(context.Background(), cluster.WorkerConfig{
			Coordinator: *join, Listen: *clusterListen,
			Lanes: *maxWorkers, Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster worker:", err)
			os.Exit(1)
		}
		fmt.Printf("cluster worker %d joined %s (mesh on %s, %d lanes)\n", worker.ID(), *join, worker.Addr(), *maxWorkers)
		// Workers are pure compute nodes: no HTTP API, so several can
		// share a machine without -addr colliding. Block until signalled,
		// then drain (finish the in-flight rank, tell the coordinator).
		stop := make(chan os.Signal, 2)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		sig := <-stop
		fmt.Printf("received %v, draining worker\n", sig)
		worker.Close()
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown -role %q (want \"coordinator\", \"worker\" or empty)\n", *role)
		os.Exit(1)
	}

	svc := service.New(service.Config{
		CacheSize: *cacheSize, CacheBytes: *cacheBytes,
		MaxWorkers: *maxWorkers, TraceRing: *traceRing, UploadBytes: *uploadBytes,
		Cluster: coord, ClusterMinPoints: *clusterMinPoints,
	})
	opts := []service.ServerOption{
		service.WithEvalTimeout(*evalTimeout),
		service.WithLogger(logger),
		service.WithSlowEvalThreshold(*slowEval),
	}
	if *pprofOn {
		opts = append(opts, service.WithPprof())
	}
	// baseCtx parents every request context; cancelling it is the lever
	// that aborts all in-flight evaluations when the drain deadline
	// passes (the ctx plumbing carries it down into the FMM passes).
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr:         *addr,
		Handler:      service.NewServer(svc, opts...),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		BaseContext:  func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("kifmm-serve listening on %s (cache %d plans / %d bytes, %d elastic lanes, eval timeout %v)\n",
			*addr, *cacheSize, *cacheBytes, *maxWorkers, *evalTimeout)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case sig := <-stop:
		fmt.Printf("received %v, draining for up to %v (signal again to skip)\n", sig, *drainTimeout)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			// A second signal, or the drain deadline, cuts the drain
			// short; either way the in-flight evaluations are cancelled
			// below before the hard close.
			select {
			case sig := <-stop:
				fmt.Printf("received %v again, skipping drain\n", sig)
				cancelDrain()
			case <-drainCtx.Done():
			}
		}()
		err := srv.Shutdown(drainCtx)
		cancelDrain()
		if err != nil {
			fmt.Println("drain incomplete, cancelling in-flight evaluations")
			// Cancel every request context: running FMM sweeps abort at
			// their next pass barrier and the handlers return, letting
			// a short second drain succeed where the first timed out.
			cancelBase()
			finalCtx, cancelFinal := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancelFinal()
			if err := srv.Shutdown(finalCtx); err != nil {
				_ = srv.Close()
			}
		}
	}
}
