package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factordb/fdb/internal/server"
	"github.com/factordb/fdb/internal/wire"
)

// served is an in-process server behind a real HTTP listener on the
// loopback interface.
type served struct {
	srv  *server.Server
	ts   *httptest.Server
	hc   *http.Client
	once sync.Once
	ids  atomic.Int64
	cpu  sync.Map // request id → chan float64, the handler's on-CPU ms
}

// requestHeader carries the id under which handle files a request's
// handler CPU time.
const requestHeader = "X-Perfbench-Request"

// handlerWait bounds how long a client waits for the CPU time of a
// handler that has already answered it.
const handlerWait = 10 * time.Second

func serve(srv *server.Server, clients int) (*served, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2}}
	s := &served{srv: srv, hc: hc}
	s.ts = httptest.NewServer(http.HandlerFunc(s.handle))
	resp, err := hc.Get(s.ts.URL + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// close drains the server and stops the listener, waiting for its
// goroutines.
func (s *served) close() {
	s.once.Do(func() {
		// Every client has returned, so nothing is in flight and Drain
		// returns at once; its error can only be a cancelled context.
		_ = s.srv.Drain(context.Background())
		s.hc.CloseIdleConnections()
		s.ts.Close()
	})
}

// handle passes a request to the server and files the CPU time its
// handler ran. The goroutine is held on its OS thread meanwhile, so the
// thread's CPU clock counts this handler alone. The server runs each
// statement on the handler's goroutine (its worker pool is a
// semaphore), so this is the statement's CPU time in the server, from
// the decoded request to the last encoded row.
func (s *served) handle(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestHeader)
	if id == "" {
		s.srv.ServeHTTP(w, r)
		return
	}
	runtime.LockOSThread()
	c0 := threadCPU()
	s.srv.ServeHTTP(w, r)
	ms := float64(threadCPU()-c0) / 1e6
	runtime.UnlockOSThread()
	s.cpuSlot(id) <- ms
}

func (s *served) cpuSlot(id string) chan float64 {
	ch, _ := s.cpu.LoadOrStore(id, make(chan float64, 1))
	return ch.(chan float64)
}

// handlerCPU waits for the handler of request id to return and gives its
// on-CPU ms, or NaN if it does not return in time.
func (s *served) handlerCPU(id string) float64 {
	ch := s.cpuSlot(id)
	defer s.cpu.Delete(id)
	t := time.NewTimer(handlerWait)
	defer t.Stop()
	select {
	case ms := <-ch:
		return ms
	case <-t.C:
		return math.NaN()
	}
}

// release closes the server and drops it, so the memory its plan
// caches hold can be collected.
func (s *served) release() {
	s.close()
	s.srv, s.ts = nil, nil
}

// reply is what a client learns from one /query or /exec call.
type reply struct {
	rows      int
	elapsedMs float64 // as the server reports it
	cpuMs     float64 // the server handler's on-CPU time
	affected  int64
}

// post sends one JSON request and returns the response body of a 200,
// and the id under which the handler's CPU time is filed once the
// server has answered.
func (s *served) post(ctx context.Context, path, sqlText string, accept string) (*http.Response, string, error) {
	body, err := json.Marshal(wire.QueryRequest{SQL: sqlText})
	if err != nil {
		return nil, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	id := strconv.FormatInt(s.ids.Add(1), 10)
	req.Header.Set(requestHeader, id)
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.handlerCPU(id)
		return nil, "", fmt.Errorf("%s %q: %s: %s", path, sqlText, resp.Status, bytes.TrimSpace(b))
	}
	return resp, id, nil
}

// query posts a SELECT, buffered or streamed as NDJSON. When collect is
// not nil it is given the columns and the digester it returns is fed
// every row.
func (s *served) query(ctx context.Context, sqlText string, ndjson bool, collect func([]string) (*digester, error)) (rp reply, err error) {
	accept := ""
	if ndjson {
		accept = wire.ContentType
	}
	resp, id, err := s.post(ctx, "/query", sqlText, accept)
	if err != nil {
		return reply{}, err
	}
	defer func() {
		resp.Body.Close()
		rp.cpuMs = s.handlerCPU(id)
	}()
	if ndjson {
		return readStream(resp.Body, collect)
	}
	if collect == nil {
		// Only the row count is needed: count the rows without
		// decoding their cells, so the client's own work stays small.
		var body struct {
			Rows          arrayLen `json:"rows"`
			RowCount      int      `json:"rowCount"`
			ElapsedMillis float64  `json:"elapsedMillis"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return reply{}, fmt.Errorf("decoding %q: %w", sqlText, err)
		}
		if body.RowCount != int(body.Rows) {
			return reply{}, fmt.Errorf("%q: rowCount %d but %d rows", sqlText, body.RowCount, body.Rows)
		}
		return reply{rows: int(body.Rows), elapsedMs: body.ElapsedMillis}, nil
	}
	var body struct {
		Columns       []string            `json:"columns"`
		Rows          [][]json.RawMessage `json:"rows"`
		RowCount      int                 `json:"rowCount"`
		ElapsedMillis float64             `json:"elapsedMillis"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return reply{}, fmt.Errorf("decoding %q: %w", sqlText, err)
	}
	if body.RowCount != len(body.Rows) {
		return reply{}, fmt.Errorf("%q: rowCount %d but %d rows", sqlText, body.RowCount, len(body.Rows))
	}
	dg, err := collect(body.Columns)
	if err != nil {
		return reply{}, err
	}
	for _, r := range body.Rows {
		if err := dg.addJSON(r); err != nil {
			return reply{}, err
		}
	}
	return reply{rows: len(body.Rows), elapsedMs: body.ElapsedMillis}, nil
}

// arrayLen decodes a JSON array into its number of elements, without
// decoding the elements.
type arrayLen int

func (n *arrayLen) UnmarshalJSON(b []byte) error {
	// The decoder has validated b as one JSON value: count the commas
	// at depth one, outside strings.
	b = bytes.TrimSpace(b)
	if string(b) == "null" {
		*n = 0
		return nil
	}
	if len(b) < 2 || b[0] != '[' {
		return fmt.Errorf("rows: not an array: %.20q", b)
	}
	depth, inString, escaped, count, empty := 0, false, false, 0, true
	for _, c := range b[1 : len(b)-1] {
		switch {
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ',' && depth == 0:
			count++
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			empty = false
		}
	}
	if !empty {
		count++
	}
	*n = arrayLen(count)
	return nil
}

// readStream reads an NDJSON response: header, rows, trailer.
func readStream(r io.Reader, collect func([]string) (*digester, error)) (reply, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	if !sc.Scan() {
		return reply{}, fmt.Errorf("stream without header: %v", sc.Err())
	}
	h, err := wire.DecodeHeader(sc.Bytes())
	if err != nil {
		return reply{}, err
	}
	var dg *digester
	if collect != nil {
		if dg, err = collect(h.Columns); err != nil {
			return reply{}, err
		}
	}
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		k, err := wire.Classify(line)
		if err != nil {
			return reply{}, err
		}
		switch k {
		case wire.KindRow:
			n++
			if dg != nil {
				row, err := wire.DecodeRow(line)
				if err != nil {
					return reply{}, err
				}
				if err := dg.addJSON(row); err != nil {
					return reply{}, err
				}
			}
		case wire.KindTrailer:
			t, err := wire.DecodeTrailer(line)
			if err != nil {
				return reply{}, err
			}
			if t.Error != "" {
				return reply{}, errors.New("stream failed: " + t.Error)
			}
			if t.RowCount != n {
				return reply{}, fmt.Errorf("trailer counts %d rows, stream had %d", t.RowCount, n)
			}
			return reply{rows: n, elapsedMs: t.ElapsedMillis}, nil
		default:
			return reply{}, fmt.Errorf("unexpected frame %q", line)
		}
	}
	return reply{}, fmt.Errorf("stream ended without trailer: %v", sc.Err())
}

// exec posts a DML statement.
func (s *served) exec(ctx context.Context, sqlText string) (rp reply, err error) {
	resp, id, err := s.post(ctx, "/exec", sqlText, "")
	if err != nil {
		return reply{}, err
	}
	defer func() {
		resp.Body.Close()
		rp.cpuMs = s.handlerCPU(id)
	}()
	var body server.ExecResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return reply{}, err
	}
	return reply{affected: body.RowsAffected, elapsedMs: body.ElapsedMillis}, nil
}
