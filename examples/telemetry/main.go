// Command telemetry demonstrates the live observability plane: a
// recoverable-counter workload instrumented with the always-on flight
// recorder and no tracer, its memory counters and recorder state and
// lifecycle counts exposed as a flat JSON document on an opt-in HTTP
// endpoint (plus /healthz and the pprof family). The example starts the
// plane on a loopback listener, runs the workload, scrapes its own
// /metrics and verifies the document reflects the work done.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"nrl"
	"nrl/internal/flightrec"
	"nrl/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "telemetry:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		procs = 2
		incs  = 25
	)
	frec := flightrec.NewRecorder(flightrec.Options{Slots: 1024})
	sys := nrl.NewSystem(nrl.Config{Procs: procs, FlightRec: frec})

	// The plane is strictly opt-in: nothing serves until we build a mux
	// and listen. Loopback with port 0 keeps the example self-contained.
	reg := telemetry.NewRegistry()
	reg.Register("nvm", telemetry.Memory(sys.Mem()))
	reg.Register("flightrec", telemetry.Recorder(frec))
	reg.RegisterHealth("nvm", sys.Mem().Err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := &http.Server{Handler: reg.Mux()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("telemetry plane listening on %s\n", base)

	ctr := nrl.NewCounter(sys, "ctr")
	for p := 1; p <= procs; p++ {
		sys.Go(p, func(c *nrl.Ctx) {
			for i := 0; i < incs; i++ {
				ctr.Inc(c)
			}
		})
	}
	sys.Wait()

	flat, err := scrape(base + "/metrics")
	if err != nil {
		return err
	}
	fmt.Printf("nvm.ops_total=%v flightrec.ended=%v flightrec.seq=%v\n",
		flat["nvm.ops_total"], flat["flightrec.ended"], flat["flightrec.seq"])
	if flat["nvm.ops_total"] == float64(0) {
		return fmt.Errorf("metrics show no memory operations after %d increments", procs*incs)
	}
	// The recorder runs shallow, so ended counts top-level operations:
	// exactly one per increment, none of them crashed.
	if flat["flightrec.ended"] != float64(procs*incs) {
		return fmt.Errorf("flightrec.ended = %v, want %d", flat["flightrec.ended"], procs*incs)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	fmt.Println("healthz ok; metrics document well-formed")
	return nil
}

func scrape(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var flat map[string]any
	if err := json.Unmarshal(body, &flat); err != nil {
		return nil, fmt.Errorf("metrics not JSON: %w", err)
	}
	return flat, nil
}
