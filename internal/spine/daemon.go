package spine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Daemon is the command-line shell both serving daemons share: the listen
// address, the admission limits, the drain timings, and the
// listen → drain-grace → shutdown sequence that uses them.
type Daemon struct {
	// Name prefixes log lines and errors ("pspd", "pspgw").
	Name       string
	Addr       string
	Limits     Limits
	Drain      time.Duration
	DrainGrace time.Duration
}

// Flags registers the shared flags on fs: -addr with the given default,
// the four admission flags (perProc is the default capacity per GOMAXPROCS,
// named in the -max-inflight help), and -drain/-drain-grace.
func (d *Daemon) Flags(fs *flag.FlagSet, addr string, perProc int) {
	fs.StringVar(&d.Addr, "addr", addr, "listen address")
	fs.IntVar(&d.Limits.MaxInflight, "max-inflight", 0, fmt.Sprintf("admission capacity in weighted units (0 = %d/proc default, negative disables shedding)", perProc))
	fs.DurationVar(&d.Limits.AdmitWait, "admit-wait", 0, "max time a request may queue for admission before a 429 (0 = default)")
	fs.IntVar(&d.Limits.AdmitQueue, "admit-queue", 0, "admission queue length beyond capacity (0 = default)")
	fs.DurationVar(&d.Limits.AdmitRetryAfter, "admit-retry-after", 0, "base Retry-After hint on 429 responses (0 = default)")
	fs.DurationVar(&d.Drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.DurationVar(&d.DrainGrace, "drain-grace", 250*time.Millisecond, "how long healthz advertises draining (503) before the listener closes")
}

// Serve listens on d.Addr and serves h until ctx is cancelled, then drains
// and returns nil on a clean shutdown. If ready is non-nil it receives the
// bound address once the socket is open.
//
// Draining calls setDraining(true) the moment shutdown begins and keeps the
// listener open for DrainGrace: health-checking gateways observe the 503
// and stop routing here before connections start being refused. In-flight
// requests then get Drain to finish.
func (d *Daemon) Serve(ctx context.Context, h http.Handler, setDraining func(bool), stdout io.Writer, ready chan<- string) error {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return fmt.Errorf("%s: listen: %w", d.Name, err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(stdout, "%s listening on %s\n", d.Name, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve only returns before shutdown on a real listener error.
		return fmt.Errorf("%s: serve: %w", d.Name, err)
	case <-ctx.Done():
	}

	setDraining(true)
	fmt.Fprintf(stdout, "%s draining: healthz now 503, closing listener in %s\n", d.Name, d.DrainGrace)
	if d.DrainGrace > 0 {
		select {
		case <-time.After(d.DrainGrace):
		case err := <-serveErr:
			return fmt.Errorf("%s: serve: %w", d.Name, err)
		}
	}

	fmt.Fprintf(stdout, "%s shutting down, draining for up to %s\n", d.Name, d.Drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), d.Drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("%s: shutdown: %w", d.Name, err)
	}
	// A clean Shutdown makes Serve return ErrServerClosed; that is the
	// success path, not a fatal error.
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("%s: serve: %w", d.Name, err)
	}
	fmt.Fprintf(stdout, "%s stopped cleanly\n", d.Name)
	return nil
}
