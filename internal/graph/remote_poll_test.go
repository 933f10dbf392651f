package graph_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"infopipes/internal/graph"
	"infopipes/internal/pipes"
	"infopipes/internal/remote"
)

// TestRemoteWaitMissingPipeline: a pipeline that vanished from a node that
// still answers is retried while a replace window is open — a move may be
// rewiring it — and surfaces remote.ErrUnknownPipeline from Wait once no
// move can explain it.
func TestRemoteWaitMissingPipeline(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)

	d, err := chainGraph("gone", 1_000_000, "200", "probe", 1).
		Deploy(graph.OnNodes(a.client, b.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	defer d.Stop()

	closeWindow := d.ReplaceWindow()
	if err := b.client.Detach("gone/mid>>mp"); err != nil {
		t.Fatalf("detach behind the deployment's back: %v", err)
	}
	waited := make(chan error, 1)
	go func() { waited <- d.Wait() }()
	select {
	case err := <-waited:
		t.Fatalf("Wait returned %v inside the replace window; want a retry", err)
	case <-time.After(200 * time.Millisecond): // twenty poll intervals
	}
	closeWindow()
	select {
	case err := <-waited:
		if !errors.Is(err, remote.ErrUnknownPipeline) {
			t.Fatalf("Wait = %v, want remote.ErrUnknownPipeline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait kept polling a pipeline missing outside any replace window")
	}
	if err := d.Err(); !errors.Is(err, remote.ErrUnknownPipeline) {
		t.Fatalf("Err = %v, want remote.ErrUnknownPipeline", err)
	}
}

// TestRemoteFinishedRacesAddNode: Finished (a failover's first question)
// may run on one goroutine while AddNode (a join) publishes a longer client
// list on another; the poll must read it through the same snapshot as
// every other reader.  Run under -race.
func TestRemoteFinishedRacesAddNode(t *testing.T) {
	tc := &testCatalog{sinks: make(map[string]*pipes.CollectSink)}
	cat := tc.catalog()
	a := startNode(t, "alpha", cat)
	b := startNode(t, "beta", cat)

	d, err := chainGraph("join", 1_000_000, "200", "probe", 1).
		Deploy(graph.OnNodes(a.client, b.client).WithClusterLanes())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d.Start()
	defer d.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d.Finished() {
				t.Error("a running stream reported Finished")
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		c, err := remote.Dial(b.client.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := d.AddNode(c); err != nil {
			t.Fatalf("AddNode %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := d.NodeCount(); got != 22 {
		t.Fatalf("node count = %d, want 22", got)
	}
}
