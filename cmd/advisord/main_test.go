package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/hibench"
)

// A client that sends half a header and goes silent is hung up on once the
// header timeout passes, a /v1/eval beside it is answered meanwhile, and
// cancelling the context shuts the server down cleanly.
func TestSilentClientIsClosedWhileOthersAreServed(t *testing.T) {
	eng := advisor.NewEngine(advisor.Options{Runner: func(hibench.Query) (hibench.RunResult, error) {
		return hibench.RunResult{Duration: 1}, nil
	}})
	srv := newServer(advisor.NewServer(eng))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server built without read timeouts: %+v", srv)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut a cold sweep's answer short", srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond // the production value would make this test wait 5 s

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, srv, ln) }()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if _, err := io.WriteString(silent, "POST /v1/eval HTTP/1.1\r\nHost: advisord\r\n"); err != nil {
		t.Fatal(err)
	}

	query := hibench.Query{Workload: "sort", Size: "tiny", Placement: "tier:2"}
	if err := post("http://"+ln.Addr().String()+"/v1/eval", query); err != nil {
		t.Fatalf("eval beside a silent client: %v", err)
	}

	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, silent); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("the server held the silent connection open past its header timeout")
		}
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("the listener still accepts after shutdown")
	}
}

// post sends one JSON request and fails unless it is answered 200 OK.
func post(url string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, out)
	}
	return err
}
