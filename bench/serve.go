package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rewire"
)

// maxGenLate is the largest generator tail lateness a valid open-loop
// run may have: half the mean gap between arrivals. Latency is timed
// from the due time, so lateness is charged, not hidden; beyond this the
// late sends bunch up, and the schedule, not the daemon, shapes latency.
// With the machine at half its baseline speed, the tail lateness reached
// 5.4-6.2 ms; it is about 2 ms on a quiet machine.
const maxGenLate = time.Second / (2 * serveRate)

// serveSegments is how many open-loop segments the timed window is cut
// into, with the daemon idle and the reference task timed between them.
// The machine's speed changes within seconds (see calib.go), and the
// task cannot run during a segment without competing with the daemon.
const serveSegments = 10

// timing is one open-loop operation's timeline, as offsets from the
// schedule's start.
type timing struct {
	due        time.Duration // when the schedule says to send it
	dispatched time.Duration // when the generator handed it to the connections
	sent       time.Duration // when a connection started sending it
	done       time.Duration // when its answer had been read
}

// latency is timed from the due time, so a stall also charges the wait
// it imposes on the requests due behind it.
func (t timing) latency() time.Duration { return t.done - t.due }

// late is how far behind its schedule the generator ran.
func (t timing) late() time.Duration { return t.dispatched - t.due }

// poissonSchedule draws n send offsets of a Poisson process over
// window. Given their count, the arrivals of a Poisson process are
// independent uniform points, so fixing n fixes the run's work while
// the gaps stay exponential.
func poissonSchedule(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// openLoop calls call(i) for every i at dues[i] after it starts, on
// conns concurrent workers, and returns each call's timing. A call due
// while every worker is busy waits for one.
func openLoop(dues []time.Duration, conns int, call func(i int)) []timing {
	t := make([]timing, len(dues))
	// Sized to the number of sends, so the generator never blocks and
	// its lateness measures only its own timer.
	queue := make(chan int, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				t[i].sent = time.Since(start)
				call(i)
				t[i].done = time.Since(start)
			}
		}()
	}
	for i, due := range dues {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t[i].due = due
		t[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return t
}

// serveResp is the part of a POST /map answer the benchmark checks.
type serveResp struct {
	Success    bool             `json:"success"`
	II         int              `json:"ii"`
	MII        int              `json:"mii"`
	DurationMS float64          `json:"duration_ms"`
	Counters   map[string]int64 `json:"counters"`
	Cached     bool             `json:"cached"`
	Error      string           `json:"error"`
}

// daemon is one running rewire-serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	err    error // cmd.Wait's result, set before exited closes
}

// startDaemon starts rewire-serve on a free local port and waits until
// it reports ready. A port taken between choosing and binding it makes
// the daemon exit; it is retried on another.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port,
			"-workers", strconv.Itoa(serveWorkers), "-log-level", "error")
		dieWithParent(cmd)
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		d := &daemon{
			cmd: cmd, base: "http://127.0.0.1:" + port, exited: make(chan struct{}),
			client: &http.Client{Timeout: 90 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
			}},
		}
		go func() {
			d.err = cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitReady(30 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("rewire-serve exited before it was ready: %v", d.err)
		default:
		}
		if r, err := d.client.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("rewire-serve not ready after %v", limit)
}

// stop kills the daemon, waits for it to exit and returns its peak
// resident memory. Calling it again returns the same.
func (d *daemon) stop() float64 {
	d.client.CloseIdleConnections()
	d.cmd.Process.Kill() // an error means it already exited
	<-d.exited
	return childPeakRSSMB(d.cmd.ProcessState)
}

// post sends one POST /map and returns the status and raw answer.
func (d *daemon) post(body []byte) (int, []byte, error) {
	r, err := d.client.Post(d.base+"/map", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	return r.StatusCode, data, err
}

// metrics scrapes /metrics into a map from series (name plus labels)
// to value.
func (d *daemon) metrics() (map[string]float64, error) {
	r, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// twoAtATime calls f(i) for every i below n, on serveConns goroutines,
// and returns when every call has.
func twoAtATime(n int, f func(i int)) {
	next := make(chan int, n) // holds every index up front
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// warm compiles the hot set through the daemon, two at a time, and
// returns each entry's answer.
func (d *daemon) warm() ([]serveResp, error) {
	resps := make([]serveResp, len(serveHot))
	errs := make([]error, len(serveHot))
	twoAtATime(len(serveHot), func(i int) {
		e := serveHot[i]
		e.TimePerIIMS = int(budgetPerII.Milliseconds())
		body, _ := json.Marshal(e) // a struct of strings and ints always marshals
		status, data, err := d.post(body)
		var resp serveResp
		if err == nil {
			err = json.Unmarshal(data, &resp)
		}
		switch {
		case err != nil:
		case status != http.StatusOK || !resp.Success || resp.Cached:
			err = fmt.Errorf("warming %s@%s: status %d success=%t cached=%t %s",
				e.Kernel, e.Arch, status, resp.Success, resp.Cached, resp.Error)
		}
		resps[i], errs[i] = resp, err
	})
	return resps, errors.Join(errs...)
}

// startWarm starts a daemon and warms the hot set: serve-mix's set-up.
func startWarm(bin string) (*daemon, []serveResp, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, nil, err
	}
	resps, err := d.warm()
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, resps, nil
}

// timeSetups times serveSetups set-ups, stopping each daemon once it is
// warm, and returns each set-up's duration and its daemon's peak memory.
func timeSetups(bin string) (durs, peaks []float64, err error) {
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		d, _, err := startWarm(bin)
		if err != nil {
			return nil, nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		peaks = append(peaks, d.stop())
	}
	return durs, peaks, nil
}

// key names an entry's compile. The budget is left out: every budget
// serve-mix sends is far above what the compile takes, so it only keeps
// a novel request out of the cache and never changes the result.
func (e serveEntry) key() string { return fmt.Sprintf("%s@%s#%d", e.Kernel, e.Arch, e.Seed) }

// serveWant is what the daemon must answer for an entry: the II and work
// counters of the same compile run in-process.
type serveWant struct {
	ii       int
	counters map[string]int64
}

// check reports how a fresh compile's answer differs from the want.
func (w serveWant) check(resp serveResp) error {
	if resp.II != w.ii || !maps.Equal(resp.Counters, w.counters) {
		return fmt.Errorf("answered II %d with counters %v; in-process: II %d with counters %v",
			resp.II, resp.Counters, w.ii, w.counters)
	}
	return nil
}

// compileServeEntries compiles every hot-set and pool entry in-process,
// with the options the daemon uses and a tracer for the counters, and
// applies the validity gate to each mapping. The daemon's answers are
// then checked against these compiles: it sends back no mapping, so
// this is how its mappings are validated. It returns what the daemon
// must answer for each entry, by key.
func compileServeEntries(rep *report, in compileInputs) map[string]serveWant {
	entries := append(append([]serveEntry(nil), serveHot...), servePool...)
	ress := make([]rewire.Result, len(entries))
	errs := make([]error, len(entries))
	wants := make([]serveWant, len(entries))
	// The compiles are independent and only read the shared inputs.
	twoAtATime(len(entries), func(i int) {
		e := entries[i]
		tr := rewire.NewTracer()
		m, res, mapErr := rewire.Map(in.graphs[e.Kernel], in.archs[e.Arch],
			rewire.Options{Mapper: rewire.MapperRewire, Seed: e.Seed, TimePerII: budgetPerII, Tracer: tr})
		errs[i] = checkMapping(m, res, mapErr)
		if errs[i] == nil && m == nil {
			errs[i] = fmt.Errorf("no mapping: %v", mapErr)
		}
		ress[i], wants[i] = res, serveWant{ii: res.II, counters: tr.CounterTotals()}
	})
	byKey := map[string]serveWant{}
	digests := map[string]string{}
	for i, e := range entries {
		if errs[i] != nil {
			rep.invalid("%s in-process: %v", e.key(), errs[i])
		}
		digests[e.key()] = digest(ress[i])
		byKey[e.key()] = wants[i]
	}
	rep.setDigest(digests)
	return byKey
}

// serveOp is one scheduled request of serve-mix.
type serveOp struct {
	body  []byte
	entry serveEntry
	novel bool
}

// serveTraceSeed draws serve-mix's arrival trace: when each request is
// due and which requests are novel. Every run replays this one trace, as
// it would a recorded one. Across ten traces drawn from the workload
// seed, the p98 latency's quartile distance was 0.31-0.58 of its median:
// whether two compiles overlap, and how many cache reads queue behind
// them, changed from one trace to the next. Replaying one trace, it was
// 0.12, and only timing differed between runs.
const serveTraceSeed = 1

// servePlan turns the workload seed into the run's requests. The trace
// is n Poisson arrivals over the window, of which exactly
// serveNovelShare, drawn uniformly, are novel; a uniform draw from
// Poisson arrivals leaves both the novel and the repeat requests
// Poisson. Novel request j compiles pool entry j mod len(servePool)
// under a budget no earlier request used. The workload seed draws which
// hot-set entry each repeat request reads.
func servePlan(seed int64, seconds int) ([]time.Duration, []serveOp) {
	trace := rand.New(rand.NewSource(serveTraceSeed))
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate * float64(seconds)))
	m := int(math.Round(serveNovelShare * float64(n)))
	dues := poissonSchedule(trace, n, time.Duration(seconds)*time.Second)
	novel := make([]bool, n)
	for _, i := range trace.Perm(n)[:m] {
		novel[i] = true
	}
	ops := make([]serveOp, n)
	j := 0
	for i := range ops {
		op := &ops[i]
		op.novel = novel[i]
		budget := int(budgetPerII.Milliseconds())
		if op.novel {
			op.entry = servePool[j%len(servePool)]
			budget -= 1 + j
			j++
		} else {
			op.entry = serveHot[rng.Intn(len(serveHot))]
		}
		e := op.entry
		e.TimePerIIMS = budget
		op.body, _ = json.Marshal(e) // a struct of strings and ints always marshals
	}
	return dues, ops
}

// served is one request's outcome.
type served struct {
	timing
	scale  float64 // the speed factor of its segment
	status int
	body   []byte
	err    error
}

// segmentRef is the reference time at a segment boundary, when the
// daemon is idle: the median of three samples.
func segmentRef() float64 { return median(calibrate(3)) }

// drive sends the planned requests as serveSegments open-loop segments
// of equal length. Between segments, with every answer in and the daemon
// idle, it times the reference task; each request is scaled by the
// samples around its segment. It returns the outcomes, the time the
// segments took, and the reference times at the segment boundaries.
func drive(d *daemon, window time.Duration, dues []time.Duration, ops []serveOp) ([]served, time.Duration, []float64) {
	out := make([]served, len(ops))
	refs := []float64{segmentRef()}
	var active time.Duration
	lo := 0
	for k := 1; k <= serveSegments; k++ {
		start, end := window*time.Duration(k-1)/serveSegments, window*time.Duration(k)/serveSegments
		hi := lo
		for hi < len(dues) && dues[hi] < end {
			hi++
		}
		rel := make([]time.Duration, hi-lo)
		for i := range rel {
			rel[i] = dues[lo+i] - start
		}
		tm := openLoop(rel, serveConns, func(i int) {
			s := &out[lo+i]
			s.status, s.body, s.err = d.post(ops[lo+i].body)
		})
		refs = append(refs, segmentRef())
		scale := 2 * refNominalMS / (refs[k-1] + refs[k])
		var took time.Duration
		for i, t := range tm {
			out[lo+i].timing, out[lo+i].scale = t, scale
			took = max(took, t.done)
		}
		active += took
		lo = hi
	}
	return out, active, refs
}

// runServe runs serve-mix against a fresh rewire-serve.
func runServe(bin string, seed int64, seconds int, traced bool) (*report, error) {
	rep := newReport()
	// Time the lowering the daemon repeats on every request, repeats
	// included, on the kernels serve-mix sends.
	var sent []combo
	for _, e := range append(append([]serveEntry(nil), serveHot...), servePool...) {
		sent = append(sent, combo{e.Kernel, e.Arch})
	}
	in, _, lowerUS, err := setupCompile(sent)
	if err != nil {
		return nil, err
	}
	wants := compileServeEntries(rep, in)
	setupRef := segmentRef()
	setupDurs, setupPeaks, err := timeSetups(bin)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	d, warmed, err := startWarm(bin)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	for i, resp := range warmed {
		if err := wants[serveHot[i].key()].check(resp); err != nil {
			rep.invalid("warming %s: %v", serveHot[i].key(), err)
		}
	}
	window := time.Duration(seconds) * time.Second
	dues, ops := servePlan(seed, seconds)

	before, err := d.metrics()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	outs, active, refs := drive(d, window, dues, ops)
	after, err := d.metrics()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	rssMB := d.stop()

	var (
		all, raw, novelLat, hitLat, late []float64
		compileMS, overheadMS            []float64
		iiRatios                         []float64
		ok                               int
		layers                           = layerTally{self: map[string]time.Duration{}, counters: map[string]int64{}}
		ms                               = func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	)
	for i, op := range ops {
		rep.attempted++
		o := outs[i]
		all = append(all, ms(o.latency())*o.scale)
		raw = append(raw, ms(o.latency()))
		late = append(late, ms(o.late()))
		var resp serveResp
		if o.err == nil {
			o.err = json.Unmarshal(o.body, &resp)
		}
		switch {
		case o.err != nil:
			rep.fail("request %d: %v", i, o.err)
			continue
		case o.status != http.StatusOK || !resp.Success:
			rep.fail("request %d: status %d success=%t %s", i, o.status, resp.Success, resp.Error)
			continue
		}
		ok++
		want := wants[op.entry.key()]
		if !op.novel {
			hitLat = append(hitLat, ms(o.latency()))
			if !resp.Cached || resp.II != want.ii {
				rep.fail("request %d: repeat of %s answered cached=%t II %d, want cached II %d",
					i, op.entry.key(), resp.Cached, resp.II, want.ii)
			}
			continue
		}
		if resp.Cached {
			rep.fail("request %d: novel request answered from the cache", i)
		} else if err := want.check(resp); err != nil {
			rep.fail("request %d: %s %v", i, op.entry.key(), err)
		}
		novelLat = append(novelLat, ms(o.latency())*o.scale)
		compileMS = append(compileMS, resp.DurationMS*o.scale)
		overheadMS = append(overheadMS, (ms(o.done-o.sent)-resp.DurationMS)*o.scale)
		iiRatios = append(iiRatios, float64(resp.II)/float64(resp.MII))
		layers.compiles++
		for name, v := range resp.Counters {
			layers.counters[name] += v
		}
	}

	wantMisses := float64(len(serveHot) + len(novelLat))
	if got := after["rewire_resultcache_misses_total"]; got != wantMisses {
		rep.invalid("resultcache misses %g, want %g warm-ups plus novel requests", got, wantMisses)
	}
	lateTail, lateQ, err := tail(late)
	if err != nil {
		rep.invalid("generator lateness: %v", err)
	} else if lateTail > ms(maxGenLate) {
		rep.invalid("generator p%g lateness %.2f ms is above %v", lateQ*100, lateTail, maxGenLate)
	}

	scale := rep.calibrated(refs)
	if traced {
		setLayers(rep, &layers, lowerUS, scale)
		// Lateness checks the generator's own timer, so it is not scaled.
		rep.set("bench.gen_late_ms_tail", lateTail, len(late))
		delta := func(series string) float64 { return after[series] - before[series] }
		rep.set("resultcache.hits", delta("rewire_resultcache_hits_total"), 0)
		rep.set("resultcache.misses", delta("rewire_resultcache_misses_total"), 0)
		rep.set("serve.queue_wait_ms_mean", 1e3*scale*ratio(delta("rewire_serve_queue_wait_seconds_sum"),
			delta("rewire_serve_queue_wait_seconds_count")), 0)
		rep.set("serve.gc_pause_ms", 1e3*scale*delta("rewire_process_gc_pause_seconds_total"), 0)
		rep.set("serve.compile_ms_p50", median(compileMS), len(compileMS))
		rep.set("serve.overhead_ms_p50", median(overheadMS), len(overheadMS))
		rep.set("serve.window_peak_rss_mb", rssMB, 0)
		// The daemon traces every request whether or not the run is
		// traced, so tracing adds nothing here.
		rep.set("bench.trace_overhead_frac", 0, 0)
		return rep, nil
	}

	rep.set("setup_s", median(setupDurs)*2*refNominalMS/(setupRef+refs[0]), len(setupDurs))
	// The typical request is a cache read. Its time is mostly system
	// calls, loopback and JSON, which followed the reference task in some
	// ten-seed sets and not in others, so it is not scaled. The median,
	// unlike the interquartile mean, stays clear of the cache reads that
	// queue behind compiles: on a loaded machine the cache reads'
	// interquartile mean had a quartile distance of 0.42 over ten seeds,
	// their median 0.15.
	rep.set("latency_ms_typical", median(raw), len(raw))
	rep.setTail("latency_ms_tail", all)
	// The compile itself, as the daemon timed it: the time novel requests
	// wait behind other work shows in the latencies above.
	rep.set("compile_ms_geomean", geomean(compileMS), len(compileMS))
	// The offered rate sets an open loop's throughput, so it is not
	// scaled: it falls below the rate only when the daemon falls behind.
	rep.set("ops_per_s", float64(ok)/active.Seconds(), ok)
	rep.set("ii_over_mii", geomean(iiRatios), len(iiRatios))
	rep.set("mapped_frac", float64(ok)/float64(len(ops)), len(ops))
	// A warm daemon's peak memory. The window daemon's peak, printed
	// below, depends on how the compiles overlap and which of their traces
	// the flight recorder holds at that moment: over twenty runs of one
	// trace it moved between 144 and 179 MB.
	rep.set("peak_rss_mb", median(setupPeaks), len(setupPeaks))
	// For the reader; not part of the catalog.
	rep.note("%-32s %14.6g MB", "window_peak_rss_mb", rssMB)
	for _, p := range []struct {
		name string
		xs   []float64
	}{{"repeat_ms", hitLat}, {"novel_ms", novelLat}} {
		if v, err := percentile(p.xs, 0.5); err == nil {
			rep.note("%-32s %14.6g ms     n=%d", p.name+"_p50", v, len(p.xs))
		}
		if v, q, err := tail(p.xs); err == nil {
			rep.note("%-32s %14.6g ms     n=%d", fmt.Sprintf("%s_p%g", p.name, q*100), v, len(p.xs))
		}
	}
	return rep, nil
}
