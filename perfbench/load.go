package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's size: partition callers that each wait for
// their reply, each on one keep-alive connection.
const clients = 2

// roundBytes bounds the response bytes held between checks. The timed
// phase is cut into rounds; each round ends when this many bytes are
// buffered or the round's time is up, the clients drain, and the round's
// responses are checked while no request is in flight.
const roundBytes = 96 << 20

// Sample is one request of the timed phase as the client saw it.
type Sample struct {
	Req                   Request
	Status                int
	Degraded, Breaker     bool // X-Partsrv-Degraded / X-Partsrv-Breaker set
	Body                  []byte
	Start, FirstByte, End time.Time
	Err                   error // transport error
	CheckErr              error // failed output check (or transport error)
	Bytes                 int   // body length, kept after the body is released
	Traced                bool
	Repeat                bool // the stream issued this key before
}

// Latency is the client-observed time from sending the request to the last
// body byte.
func (s *Sample) Latency() time.Duration { return s.End.Sub(s.Start) }

// loadClient is one closed-loop caller with its own connection.
type loadClient struct {
	id     int
	hc     *http.Client
	stream Stream
	sent   int
}

func newLoadClient(id int, stream Stream) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &loadClient{id: id, stream: stream, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// do sends one request and reads the whole body. With traced set it
// records the time of the first response byte through httptrace.
func (c *loadClient) do(base string, req Request, traced bool) *Sample {
	s := &Sample{Req: req, Traced: traced}
	ctx := context.Background()
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { s.FirstByte = time.Now() },
		})
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/partition?"+req.Query(), nil)
	if err != nil {
		s.Err = err
		return s
	}
	s.Start = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.End, s.Err = time.Now(), err
		return s
	}
	if resp.ContentLength > 0 {
		s.Body = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, s.Body)
	} else {
		s.Body, err = io.ReadAll(resp.Body)
	}
	s.End = time.Now()
	resp.Body.Close()
	s.Err = err
	s.Status = resp.StatusCode
	s.Degraded = resp.Header.Get("X-Partsrv-Degraded") != ""
	s.Breaker = resp.Header.Get("X-Partsrv-Breaker") != ""
	return s
}

// round runs every client's closed loop until the round's time is up or
// roundBytes are buffered, waits for the in-flight requests, and returns
// the samples plus the round's wall time. With traced set, every other
// request of each client is traced, so traced and untraced requests share
// the same moments and the same request mix.
func round(base string, cs []*loadClient, limit time.Duration, traced bool) ([]*Sample, time.Duration) {
	var (
		wg       sync.WaitGroup
		buffered atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		out      []*Sample
	)
	t0 := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			var mine []*Sample
			for !stop.Load() {
				it := c.stream.Next()
				s := c.do(base, it.Req, traced && c.sent%2 == 1)
				s.Repeat = it.Repeat
				c.sent++
				mine = append(mine, s)
				if buffered.Add(int64(len(s.Body))) >= roundBytes || time.Since(t0) >= limit {
					stop.Store(true)
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// warmUp sends every client's warm-up request once, outside the timed
// phase, so the timed phase starts on warm connections and a grown heap.
func warmUp(base, workload string, cs []*loadClient) ([]*Sample, error) {
	var out []*Sample
	for _, c := range cs {
		s := c.do(base, warmRequest(workload, c.id), false)
		if s.Err != nil {
			return nil, fmt.Errorf("warm-up request: %w", s.Err)
		}
		out = append(out, s)
	}
	return out, nil
}
