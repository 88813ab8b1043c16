package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/lddp/client"
)

// quietLog drops handler-level log lines; failures surface to the
// benchmark as request errors instead.
var quietLog = log.New(io.Discard, "", 0)

// loopback is one HTTP handler served on a 127.0.0.1 listener.
type loopback struct {
	hs   *http.Server
	url  string
	done chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{hs: &http.Server{Handler: h, ErrorLog: quietLog}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the listener down and waits for Serve to return.
func (l *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// node is one in-process lddpd stack: server.New behind a loopback
// listener.
type node struct {
	srv *server.Server
	lb  *loopback
}

func startNode(cfg server.Config) (*node, error) {
	cfg.ErrorLog = quietLog
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	lb, err := serveLoopback(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{srv: srv, lb: lb}, nil
}

// stop drains the node in lddpd's order: readiness, listener, scheduler.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := n.srv.Drain(ctx)
	lerr := n.lb.close()
	n.srv.Close()
	return errors.Join(derr, lerr)
}

// loadHTTP is the benchmark's one HTTP client: it never holds more
// connections to a host than there are cores, matching the at-most-nproc
// callers that share it.
func loadHTTP() (*http.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = runtime.NumCPU()
	tr.MaxIdleConnsPerHost = runtime.NumCPU()
	return &http.Client{Transport: tr}, tr
}

// newClient builds an lddp client over hc. Retries are off: a refused
// request is a failure to count, not one to hide.
func newClient(url string, hc *http.Client, codec client.Codec, opts ...client.Option) (*client.Client, error) {
	opts = append([]client.Option{
		client.WithHTTPClient(hc), client.WithCodec(codec),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 1}),
	}, opts...)
	return client.New(url, opts...)
}

// fleetStack is a coordinator over in-process nodes, each with its own
// scheduler, and the coordinator's own loopback listener.
type fleetStack struct {
	nodes []*node
	peers []*client.Client
	coord *fleet.Coordinator
	lb    *loopback
	tr    *http.Transport
}

func startFleet(nodes, workersPerNode int) (*fleetStack, error) {
	// The coordinator's own pool to the nodes; not the benchmark's load.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	hc := &http.Client{Transport: tr}
	f := &fleetStack{tr: tr}
	for i := 0; i < nodes; i++ {
		n, err := startNode(server.Config{Workers: workersPerNode})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		c, err := newClient(n.lb.url, hc, client.CodecBinary)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.peers = append(f.peers, c)
	}
	coord, err := fleet.New(fleet.Config{Nodes: f.peers})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/solve", fleet.NewHandler(coord, quietLog))
	if f.lb, err = serveLoopback(mux); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleetStack) stop() error {
	var errs []error
	if f.lb != nil {
		errs = append(errs, f.lb.close())
	}
	if f.coord != nil {
		f.coord.Close()
	}
	f.tr.CloseIdleConnections()
	for _, n := range f.nodes {
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}
