package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"

	"nrl"
	"nrl/internal/flightrec"
	"nrl/internal/telemetry"
)

// runServe is the serve subcommand: run the counter scenario once with
// the always-on flight recorder and no tracer, then keep the telemetry
// plane up on -addr until the process is killed. It exists for live
// inspection and for CI's endpoint smoke test; the metrics document
// reflects the completed workload.
func runServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nrlstat serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address for the telemetry plane")
	procs := fs.Int("procs", 2, "number of processes in the warm-up workload")
	ops := fs.Int("ops", 50, "operations per process in the warm-up workload")
	once := fs.Bool("once", false, "self-scrape /metrics once and exit (for tests)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	frec := flightrec.NewRecorder(flightrec.Options{})
	sys := nrl.NewSystem(nrl.Config{Procs: *procs, FlightRec: frec})
	ctr := nrl.NewCounter(sys, "ctr")
	bodies := map[int]func(*nrl.Ctx){}
	for p := 1; p <= *procs; p++ {
		bodies[p] = func(c *nrl.Ctx) {
			for i := 0; i < *ops; i++ {
				ctr.Inc(c)
			}
		}
	}
	if err := sys.Run(bodies); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	reg.Register("nvm", telemetry.Memory(sys.Mem()))
	reg.Register("flightrec", telemetry.Recorder(frec))
	reg.RegisterHealth("nvm", sys.Mem().Err)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(w, "listening on %s\n", ln.Addr())
	srv := &http.Server{Handler: reg.Mux()}
	if *once {
		go srv.Serve(ln)
		defer srv.Close()
		resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(w, resp.Body)
		return err
	}
	return srv.Serve(ln)
}
