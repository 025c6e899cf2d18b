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
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/serve"
)

// runServe implements the `serve` subcommand: the HTTP experiment
// service. Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage.
func runServe(args []string) int {
	f := newFlags("serve", "-cache dir [-addr :8080] [-jobs n] [-workers n]", withWorkers)
	addr := f.String("addr", ":8080", "listen address (host:port; port 0 picks a free one)")
	cacheDir := f.String("cache", "", "content-addressed result cache directory (required)")
	jobs := f.Int("jobs", 2, "max concurrently executing jobs; further submissions queue FIFO")
	slots := f.Int("slots", 0, "worker slots for sharded (shards>1) jobs; 0 = coordinator default")
	jobTTL := f.Duration("job-ttl", 0, "evict terminal jobs from the in-memory table after this long (their cache entries keep serving resubmissions); 0 = never")
	cacheMax := f.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries once their summed size passes this; 0 = unbounded")
	imports := f.String("import", "", "comma-separated coordinator run directories to import as cache entries at startup")
	of := addObsFlags(f.FlagSet, "info", false)
	if code, ok := f.parse(args); !ok {
		return code
	}
	if *cacheDir == "" {
		f.Usage()
		return 2
	}
	logger, err := of.logger(os.Stderr)
	if err != nil {
		return usageError(err)
	}
	runner.SetWorkers(*f.workers)
	s, err := serve.New(serve.Options{
		CacheDir:      *cacheDir,
		MaxJobs:       *jobs,
		Slots:         *slots,
		JobTTL:        *jobTTL,
		CacheMaxBytes: *cacheMax,
		Logger:        logger,
	})
	if err != nil {
		return failure(err)
	}
	for _, dir := range strings.Split(*imports, ",") {
		if dir = strings.TrimSpace(dir); dir == "" {
			continue
		}
		key, err := s.Cache().ImportRunDir(dir)
		if err != nil {
			return failure(err)
		}
		fmt.Fprintf(os.Stderr, "serve: imported %s as %.12s\n", dir, key)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return failure(err)
	}
	fmt.Printf("meshopt serve: listening on http://%s (cache %s)\n", ln.Addr(), *cacheDir)
	os.Stdout.Sync()

	hs := newHTTPServer(s.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return failure(err)
	case <-sig:
		fmt.Fprintln(os.Stderr, "meshopt serve: shutting down (checkpointing in-flight jobs)")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "meshopt serve: shutdown: %v\n", err)
		}
		hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
		defer hcancel()
		hs.Shutdown(hctx)
		hs.Close()
		return 0
	}
}

// Slow clients may not hold a connection open indefinitely: a request's
// headers must arrive within serveReadHeaderTimeout and an idle
// keep-alive connection is closed after serveIdleTimeout. There is no
// write timeout, because GET .../records streams a running job's records
// for as long as the job runs.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the serve handler in the server `meshopt serve`
// listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// decodeResponse reads an API response and decodes its JSON body into
// out, returning the HTTP status code; a non-200 status becomes an
// error carrying the server's message.
func decodeResponse(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// postJSON posts body and decodes the JSON response into out,
// returning the HTTP status code.
func postJSON(url string, body []byte, out any) (int, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return decodeResponse(resp, out)
}

// serverStatus mirrors the serve layer's GET /v1/jobs/{id} body.
type serverStatus struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Cells        int    `json:"cells"`
	CellsDone    int    `json:"cells_done"`
	Records      int    `json:"records"`
	CacheHit     bool   `json:"cache_hit"`
	ResumedCells int    `json:"resumed_cells"`
	ReusedShards int    `json:"reused_shards"`
	Error        string `json:"error"`
	Summary      string `json:"summary"`
}

// runSubmit implements the `submit` subcommand: post a job to a
// `meshopt serve` instance and stream its records to stdout (or -o),
// byte-identical to running the same job locally with `meshopt fig`.
// Exit codes: 0 ok, 1 runtime/server failure, 2 usage or unknown name.
func runSubmit(args []string) int {
	f := newFlags("submit", "<n|name|scenario|spec.json> -addr http://host:port [flags]", withTarget|withOut|withShards|withServer)
	from := f.Int("from", 0, "stream records starting at this cell index")
	target, code, ok := f.parseTarget(args)
	if !ok {
		return code
	}
	j, err := f.resolve(target)
	if err != nil {
		return usageError(err)
	}
	if *from < 0 {
		return usageError(errors.New("-from must be >= 0"))
	}
	body, err := json.Marshal(j.Job)
	if err != nil {
		return failure(err)
	}
	base := f.server()
	var sub struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Cells   int    `json:"cells"`
		Created bool   `json:"created"`
	}
	status, err := postJSON(base+"/v1/jobs", body, &sub)
	if status == http.StatusBadRequest {
		return usageError(err) // the server rejected the job itself
	}
	if err != nil {
		return failure(err)
	}
	how := "submitted"
	switch {
	case !sub.Created && sub.State == "done":
		how = "cache: hit"
	case !sub.Created:
		how = "cache: attached to in-flight job"
	}
	fmt.Fprintf(os.Stderr, "job %.12s: %s (%d cells, state %s)\n", sub.ID, how, sub.Cells, sub.State)

	recordW, logW, closeOut, err := f.records()
	if err != nil {
		return failure(err)
	}
	url := base + "/v1/jobs/" + sub.ID + "/records"
	if *from > 0 {
		url += fmt.Sprintf("?from=%d", *from)
	}
	resp, err := http.Get(url)
	if err != nil {
		return failure(err)
	}
	if resp.StatusCode != http.StatusOK {
		// An error body must never reach the records destination: it
		// would corrupt a piped NDJSON consumer or the -o file.
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		closeOut()
		fmt.Fprintf(os.Stderr, "records: %s: %s\n", resp.Status, strings.TrimSpace(string(msg)))
		return 1
	}
	_, copyErr := io.Copy(recordW, resp.Body)
	resp.Body.Close()
	if cerr := closeOut(); copyErr == nil {
		copyErr = cerr
	}
	if copyErr != nil {
		return failure(copyErr)
	}

	// The stream ends when the job reaches a terminal state; report it.
	var st serverStatus
	if _, err := getJSON(base+"/v1/jobs/"+sub.ID, &st); err != nil {
		return failure(err)
	}
	if st.State != "done" {
		fmt.Fprintf(os.Stderr, "job %.12s: %s: %s\n", sub.ID, st.State, st.Error)
		return 1
	}
	if st.Summary != "" {
		fmt.Fprint(logW, st.Summary)
	}
	return 0
}

// getJSON fetches url and decodes the JSON response into out.
func getJSON(url string, out any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	return decodeResponse(resp, out)
}

var jobIDPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// watchInterval is how often watch polls the job's status.
const watchInterval = 200 * time.Millisecond

// runWatch implements the `watch` subcommand: poll a job's status and
// render a live progress line off the server's merge frontier. The
// argument is either a job id (as printed by submit) or the same
// target submit takes (the id is then derived from the content hash).
// Exit codes: 0 job done, 1 job failed or server unreachable, 2 usage
// or unknown name/job.
func runWatch(args []string) int {
	f := newFlags("watch", "<job-id|n|name|scenario|spec.json> -addr http://host:port [flags]", withTarget|withServer)
	target, code, ok := f.parseTarget(args)
	if !ok {
		return code
	}
	id := target
	if !jobIDPattern.MatchString(target) {
		j, err := f.resolve(target)
		if err != nil {
			return usageError(err)
		}
		if id, err = serve.JobKey(j.Job); err != nil {
			return usageError(err)
		}
	}

	base := f.server()
	for {
		var st serverStatus
		status, err := getJSON(base+"/v1/jobs/"+id, &st)
		if status == http.StatusNotFound {
			fmt.Fprintf(os.Stderr, "\nno such job %.12s on %s (submit it first)\n", id, base)
			return 2
		}
		if err != nil {
			return failure(err)
		}
		fmt.Fprintf(os.Stderr, "\rwatch %.12s: %-8s cells %d/%d, %d records ",
			st.ID, st.State, st.CellsDone, st.Cells, st.Records)
		switch st.State {
		case "done":
			fmt.Fprintln(os.Stderr)
			if st.Summary != "" {
				fmt.Print(st.Summary)
			}
			return 0
		case "failed":
			fmt.Fprintf(os.Stderr, "\n%s\n", st.Error)
			return 1
		}
		time.Sleep(watchInterval)
	}
}
