package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer the daemon's logger and the test share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestBadLogLevelExits2(t *testing.T) {
	var stderr syncBuffer
	if code := run(context.Background(), []string{"-log-level", "loud"}, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad -log-level") {
		t.Errorf("stderr does not name the flag: %s", stderr.String())
	}
}

// TestServeAndDrain starts the daemon on a loopback port, checks
// /healthz, cancels, and expects a clean drain.
func TestServeAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "10s"}, &stderr) }()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == "" && time.Now().Before(deadline); {
		for _, line := range strings.Split(stderr.String(), "\n") {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "listening" {
				addr = rec.Addr
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never logged its address: %s", stderr.String())
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d after cancel, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15 s of cancel")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("no clean drain logged: %s", stderr.String())
	}
}
