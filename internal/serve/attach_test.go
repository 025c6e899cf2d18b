package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments/exp"
	"repro/internal/scenario/sink"
)

// toyWide is a cheap experiment whose record count is its seed, so one
// registration yields entries of any size.
type toyWide struct{}

func (toyWide) Name() string     { return "servewide" }
func (toyWide) Describe() string { return "serve test experiment, seed = number of cells" }

func (toyWide) Cells(seed int64, sc exp.Scale) []exp.Cell {
	cells := make([]exp.Cell, seed)
	for i := range cells {
		cells[i] = exp.Cell{Seed: seed, Data: i}
	}
	return cells
}

func (toyWide) RunCell(c exp.Cell) sink.Record {
	return sink.Record{Fields: []sink.Field{sink.F("v", float64(c.Data.(int)))}}
}

func (toyWide) Reduce(recs <-chan sink.Record) exp.Result {
	var res toyServeResult
	for rec := range recs {
		res.Sum += rec.Float("v")
	}
	return res
}

func init() { exp.Register(toyWide{}) }

// spanCount counts the server recorder's spans named name.
func spanCount(s *Server, name string) int {
	n := 0
	for _, d := range s.trace.Snapshot() {
		if d.Name == name {
			n++
		}
	}
	return n
}

// warmSubmitAllocBound is what one warm s.submit may allocate — the key
// derivation and a stat — whatever the size of the entry behind it (it
// measures 8).
const warmSubmitAllocBound = 16

// TestWarmSubmitDoesNotReplayEntry: resubmitting a job that is resident
// and done attaches to it — no second job tree, no reduction replay —
// at a cost that does not grow with the entry: the same allocation bound
// holds over 50 records and over 6 000.
func TestWarmSubmitDoesNotReplayEntry(t *testing.T) {
	for _, n := range []int64{50, 6000} {
		t.Run(fmt.Sprint(n, "-records"), func(t *testing.T) {
			s, ts := newTestServer(t, t.TempDir(), Options{})
			body := fmt.Sprintf(`{"experiment":"servewide","seed":%d}`, n)
			first := postJob(t, ts, body)
			getRecords(t, ts, first.ID, "") // wait for completion
			st := getStatus(t, ts, first.ID)
			if st.Records != int(n) || st.Summary == "" {
				t.Fatalf("computed job: %+v", st)
			}
			jobs, reduces := spanCount(s, "job"), spanCount(s, "reduce")

			second := postJob(t, ts, body)
			if second.Created || second.ID != first.ID || second.State != stateDone {
				t.Fatalf("warm submit: %+v", second)
			}
			if got := getStatus(t, ts, first.ID); got.Summary != st.Summary || got.CacheHit {
				t.Fatalf("warm submit changed the job: %+v", got)
			}
			if j, r := spanCount(s, "job"), spanCount(s, "reduce"); j != jobs || r != reduces {
				t.Fatalf("warm submit recorded job spans %d -> %d, reduce spans %d -> %d", jobs, j, reduces, r)
			}

			req := dist.Job{Experiment: "servewide", Seed: n, Scale: "quick", Shards: 1}
			allocs := testing.AllocsPerRun(100, func() {
				if j, created, err := s.submit(req); err != nil || created || j.key != first.ID {
					t.Fatalf("warm submit: created=%v err=%v", created, err)
				}
			})
			if allocs > warmSubmitAllocBound {
				t.Fatalf("warm submit over %d records allocates %.0f times, want <= %d", n, allocs, warmSubmitAllocBound)
			}
		})
	}
}

// TestWarmSubmitHitBornReplaysOnce: a server that finds the entry on
// disk but no job in its table still replays the entry — once, to give
// the hit-born job the computed job's summary — and later submissions
// attach to that job without replaying again.
func TestWarmSubmitHitBornReplaysOnce(t *testing.T) {
	dir := t.TempDir()
	const body = `{"experiment":"servewide","seed":300}`
	_, ts := newTestServer(t, dir, Options{})
	first := postJob(t, ts, body)
	getRecords(t, ts, first.ID, "")
	computed := getStatus(t, ts, first.ID).Summary

	s2, ts2 := newTestServer(t, dir, Options{})
	born := postJob(t, ts2, body)
	if born.Created || born.ID != first.ID || born.State != stateDone {
		t.Fatalf("restart missed the cache: %+v", born)
	}
	if st := getStatus(t, ts2, born.ID); !st.CacheHit || st.Summary != computed {
		t.Fatalf("hit-born job: cache_hit=%v summary %q, want %q", st.CacheHit, st.Summary, computed)
	}
	if n := spanCount(s2, "reduce"); n != 1 {
		t.Fatalf("hit-born job recorded %d reduce spans, want 1", n)
	}
	again := postJob(t, ts2, body)
	if again.Created || again.ID != first.ID {
		t.Fatalf("second submit: %+v", again)
	}
	if j, r := spanCount(s2, "job"), spanCount(s2, "reduce"); j != 1 || r != 1 {
		t.Fatalf("second submit replayed: %d job spans, %d reduce spans, want 1 and 1", j, r)
	}
}

// TestWarmSubmitDuringShutdown: the attach path refuses submissions once
// the server is stopping, like the create path.
func TestWarmSubmitDuringShutdown(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{})
	const body = `{"experiment":"servetoy","seed":83}`
	first := postJob(t, ts, body)
	getRecords(t, ts, first.ID, "")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warm submit during shutdown: %s, want 503", resp.Status)
	}
}

// TestAttachVsJanitor: the attach path revalidates the entry with the
// server lock released, so the TTL janitor may sweep the job meanwhile.
func TestAttachVsJanitor(t *testing.T) {
	req := dist.Job{Experiment: "servetoy", Seed: 87, Scale: "quick", Shards: 1}
	const body = `{"experiment":"servetoy","seed":87}`

	// The job leaves the table exactly while a submission revalidates its
	// entry: the submission must not be handed the departed job.
	t.Run("swept-during-revalidation", func(t *testing.T) {
		s, ts := newTestServer(t, t.TempDir(), Options{})
		first := postJob(t, ts, body)
		getRecords(t, ts, first.ID, "")
		s.mu.Lock()
		old := s.jobs[first.ID]
		s.mu.Unlock()

		s.cache.mu.Lock() // parks the submission inside Cache.Lookup
		got := make(chan *job, 1)
		go func() {
			j, _, err := s.submit(req)
			if err != nil {
				t.Error(err)
			}
			got <- j
		}()
		// Nothing signals "blocked on the cache lock"; if the submission has
		// not got that far yet it finds an empty table instead, and the
		// assertions below hold either way.
		time.Sleep(50 * time.Millisecond)
		s.mu.Lock()
		delete(s.jobs, first.ID)
		s.trace.Drop(old.span)
		s.mu.Unlock()
		s.cache.mu.Unlock()

		j := <-got
		s.mu.Lock()
		defer s.mu.Unlock()
		if j == old || s.jobs[first.ID] != j {
			t.Fatalf("submission was handed a job that had left the table (old=%v)", j == old)
		}
		if old.coalesced != 0 {
			t.Fatalf("departed job counted %d attaches", old.coalesced)
		}
	})

	// Many clients resubmit one key while the janitor sweeps it every few
	// milliseconds: every POST is answered with the key's id, and the id
	// streams the reference bytes (re-POSTing when a sweep fell between
	// the POST and the GET, which the API allows).
	t.Run("stress", func(t *testing.T) {
		s, ts := newTestServer(t, t.TempDir(), Options{JobTTL: 4 * time.Millisecond})
		want := refStream(t, "servetoy", 87)
		first := postJob(t, ts, body)
		getRecords(t, ts, first.ID, "")

		stop := make(chan struct{})
		swept := make(chan int)
		go func() { // sweeps beside the server's own janitor, to tighten the race
			n := 0
			for {
				select {
				case <-stop:
					swept <- n
					return
				default:
					n += s.sweepJobs(time.Now())
					time.Sleep(time.Millisecond)
				}
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 150; i++ {
					if err := submitAndStream(ts.URL, body, first.ID, want); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		if n := <-swept; n == 0 {
			t.Log("no sweep evicted the job during the run; the race was not exercised")
		}
		// A span recorded under a job that had already left the table would
		// have outlived the sweep's Drop: every span left must hang off a
		// job that is still resident.
		s.mu.Lock()
		defer s.mu.Unlock()
		live := map[int]bool{}
		for _, d := range s.trace.Snapshot() {
			switch j := s.jobs[first.ID]; {
			case d.Parent == 0 && (j == nil || j.span.ID() != d.ID):
				t.Fatalf("root span %q (%d) belongs to no resident job", d.Name, d.ID)
			case d.Parent != 0 && !live[d.Parent]:
				t.Fatalf("span %q outlived its swept job", d.Name)
			}
			live[d.ID] = true
		}
	})
}

// submitAndStream POSTs body, checks the answer names id, and streams
// the id's records against want, re-POSTing when the job was swept
// between the two requests.
func submitAndStream(url, body, id string, want []byte) error {
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(reply, []byte(id)) || !bytes.Contains(reply, []byte(`"created": false`)) {
			return fmt.Errorf("POST: %s: %s", resp.Status, reply)
		}
		rr, err := http.Get(url + "/v1/jobs/" + id + "/records")
		if err != nil {
			return err
		}
		got, err := io.ReadAll(rr.Body)
		rr.Body.Close()
		if err != nil {
			return err
		}
		if rr.StatusCode == http.StatusNotFound {
			continue // swept between POST and GET
		}
		if rr.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			return fmt.Errorf("GET records: %s: streamed bytes differ from the reference", rr.Status)
		}
		return nil
	}
	return fmt.Errorf("job %s was swept before every one of 50 GETs", id[:12])
}
