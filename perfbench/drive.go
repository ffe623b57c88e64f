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
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/cyclecover/cyclecover/internal/cache"
	"github.com/cyclecover/cyclecover/internal/server"
)

// now reads the wall clock; every timing in the benchmark goes through it.
func now() time.Time {
	return time.Now() //cyclecover:rngok benchmark timing reads the clock by design; inputs derive from --seed only
}

// waitUntil sleeps until t, returning at once if t has passed. The
// runtime's timers can fire a millisecond or more late on an idle
// process; that shows as generator lateness (loadgen.lateness_p99_ms).
func waitUntil(t time.Time) {
	if d := t.Sub(now()); d > 0 {
		time.Sleep(d)
	}
}

// stack is one running serving stack: server.New behind a loopback
// net/http listener, exactly the handler cycled serves.
type stack struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

// startStack starts a server on an ephemeral loopback port.
func startStack(cfg server.Config) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		srv:  server.New(cfg),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	st.http = &http.Server{Handler: st.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(st.done)
		_ = st.http.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return st, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// closes the worker pool.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.http.Shutdown(ctx) // a timeout leaves nothing to clean up beyond Close below
	_ = st.http.Close()
	<-st.done
	st.srv.Close()
}

// client is one closed or open loop sender: a single keep-alive
// HTTP/1.1 connection, written and read on the calling goroutine.
// net/http's client transport would add a reader and a writer goroutine
// per connection, and with them two more goroutine hand-offs, each a
// possible vCPU wake-up, to every request the generator times.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{addr: strings.TrimPrefix(base, "http://")}
}

// close drops the connection; the next request dials a new one.
func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close() // nothing is pending on a connection being dropped
		c.conn = nil
	}
}

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it.
const requestTimeout = 60 * time.Second

// do sends one request and returns the status, the X-Cache header and
// the body (valid until the next call). Any error drops the connection.
func (c *client) do(method, path, ctype string, body []byte) (int, string, []byte, error) {
	status, xcache, out, err := c.roundTrip(method, path, ctype, body)
	if err != nil {
		c.close()
	}
	return status, xcache, out, err
}

func (c *client) roundTrip(method, path, ctype string, body []byte) (int, string, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return 0, "", nil, err
		}
		c.conn, c.br, c.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriter(conn)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+c.addr+path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if err := c.conn.SetDeadline(now().Add(requestTimeout)); err != nil {
		return 0, "", nil, err
	}
	if err := req.Write(c.bw); err != nil {
		return 0, "", nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return 0, "", nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), c.buf.Bytes(), nil
}

// warmIndex returns the warm-set index of it, or -1.
func warmIndex(it planItem) int {
	for i, w := range warmSet {
		if w == it {
			return i
		}
	}
	return -1
}

// batchBody encodes a /plan/batch request body, one JSON item per line.
func batchBody(items []planItem) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, it := range items {
		_ = enc.Encode(it) // encoding a plain struct into a buffer cannot fail
	}
	return b.Bytes()
}

// wire is a request as it goes out. The generator builds it before the
// latency clock starts, so encoding the request is not timed as serving.
type wire struct {
	method, path, ctype string
	body                []byte
}

// wireOf builds the HTTP request for r.
func (c *checker) wireOf(r request) (wire, error) {
	switch r.kind {
	case kindPlan:
		return wire{method: http.MethodGet, path: r.item.path()}, nil
	case kindBatch:
		return wire{http.MethodPost, "/plan/batch", "application/x-ndjson", batchBody(r.items)}, nil
	case kindDelta:
		sigs, err := warmSignatures()
		if err != nil {
			return wire{}, err
		}
		payload, _ := json.Marshal(map[string]string{"parent": sigs[r.warm], "delta": r.delta}) // string map: cannot fail
		return wire{http.MethodPost, "/plan/delta", "application/json", payload}, nil
	case kindSimulate:
		it := warmSet[r.warm]
		return wire{method: http.MethodGet, path: "/simulate?n=" + strconv.Itoa(it.N) + "&demand=" + it.Demand + "&k=" + strconv.Itoa(r.k)}, nil
	default: // kindVerify
		return wire{http.MethodPost, "/verify", "application/json", c.verifyBodies[r.warm]}, nil
	}
}

// what names r in error messages.
func (r request) what() string {
	switch r.kind {
	case kindPlan:
		return "plan " + r.item.key()
	case kindDelta:
		return "delta " + r.delta
	}
	return r.label()
}

// quick reports whether r's answer is checked as soon as it arrives:
// warm plans and batches are compared byte for byte with the set-up
// references, which costs a memory compare and no allocation. Every
// other answer is decoded and verified after the measured phase.
func (r request) quick() bool {
	return r.kind == kindBatch || (r.kind == kindPlan && warmIndex(r.item) >= 0)
}

// check checks the answer to any request.
func (c *checker) check(r request, body []byte) error {
	switch r.kind {
	case kindPlan:
		return c.checkPlan(r.item, warmIndex(r.item), body)
	case kindBatch:
		idx := make([]int, len(r.items))
		for i, it := range r.items {
			idx[i] = warmIndex(it)
		}
		return c.checkBatch(idx, body)
	case kindDelta:
		return c.checkDelta(r.warm, r.delta, body)
	case kindSimulate:
		return c.checkSimulate(r.warm, r.k, body)
	default: // kindVerify
		return c.checkVerify(r.warm, body)
	}
}

// statusErr turns a transport error or a non-200 status into an error.
func statusErr(what string, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", what, status, body)
	}
	return nil
}

// warmSignatures returns the cache signature of every warm item,
// computed once.
var warmSignatures = sync.OnceValues(func() ([]string, error) {
	sigs := make([]string, len(warmSet))
	for i, it := range warmSet {
		in, err := parseItem(it)
		if err != nil {
			return nil, err
		}
		sigs[i] = cache.Signature(in, cache.Options{Strategy: it.Strategy})
	}
	return sigs, nil
})

// setUp starts a stack, plans every warm item (a miss), fetches it again
// (a hit) as the reference answer and checks the reference independently.
// It returns the stack and the set-up time.
func setUp(cfg server.Config, chk *checker) (*stack, time.Duration, error) {
	t0 := now()
	st, err := startStack(cfg)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(st.base)
	defer c.close()
	refs := make([][]byte, len(warmSet))
	for i, it := range warmSet {
		for pass := 0; pass < 2; pass++ {
			status, xcache, body, err := c.do(http.MethodGet, it.path(), "", nil)
			if err := statusErr("warm "+it.key(), status, body, err); err != nil {
				st.stop()
				return nil, 0, err
			}
			if want := []string{"MISS", "HIT"}[pass]; xcache != want {
				st.stop()
				return nil, 0, fmt.Errorf("warm %s: X-Cache %q on pass %d, want %s", it.key(), xcache, pass, want)
			}
			if pass == 1 {
				refs[i] = append([]byte(nil), body...)
			}
		}
	}
	elapsed := now().Sub(t0)
	if err := chk.setRefs(refs); err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, elapsed, nil
}

// setRefs checks the reference answers independently and derives the
// batch-line forms and /verify bodies from them. A later set-up must
// produce byte-identical references.
func (c *checker) setRefs(refs [][]byte) error {
	if c.refs != nil {
		for i := range refs {
			if !bytes.Equal(refs[i], c.refs[i]) {
				return fmt.Errorf("warm %s: set-up answer differs from the previous set-up's", warmSet[i].key())
			}
		}
		return nil
	}
	c.refs = refs
	for i, it := range warmSet {
		if err := verifyPlan(it, refs[i]); err != nil {
			return err
		}
		c.compact = append(c.compact, compactJSON(bytes.TrimSpace(refs[i])))
		var pb planBody
		if err := json.Unmarshal(refs[i], &pb); err != nil {
			return err
		}
		body, err := json.Marshal(map[string]any{"n": it.N, "demand": it.Demand, "cycles": pb.Cycles})
		if err != nil {
			return err
		}
		c.verifyBodies = append(c.verifyBodies, body)
	}
	return nil
}

// tick is the unit sample times are stored in: 100 ns, so a uint32
// holds up to about seven minutes.
const tick = 100 * time.Nanosecond

// ticks converts d to ticks, clamped to the uint32 range.
func ticks(d time.Duration) uint32 {
	switch {
	case d <= 0:
		return 0
	case d/tick >= math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(d / tick)
}

// sample is one measured response, 12 bytes.
type sample struct {
	// latency and lateness are in ticks.
	latency, lateness uint32
	// slice is the time slice the request was sent in.
	slice uint8
	class uint8
	ok    bool
	// queued marks an open-loop request that fell due while both
	// senders were busy; its latency counts from the scheduled send.
	queued bool
}

func (s sample) latencyMS() float64  { return float64(s.latency) * tick.Seconds() * 1e3 }
func (s sample) latenessMS() float64 { return float64(s.lateness) * tick.Seconds() * 1e3 }

// offHeap maps size bytes of zeroed memory outside the Go heap. The
// collector neither scans nor counts it, so what the benchmark keeps
// there moves neither heap_peak_mb nor the collector's pacing. Only
// pointer-free data may live there.
func offHeap(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// sampleChunk is the number of samples in one block of a sampleLog.
const sampleChunk = 4096

// sampleLog is a client's samples, kept off the heap in fixed 48 KiB
// blocks: it grows by one mapping every 4096 responses and never copies.
// Should a mapping fail, the block comes from the heap instead, which
// only adds its 48 KiB to heap_peak_mb.
type sampleLog struct {
	blocks [][]sample
	maps   [][]byte // the mapping behind each block; nil for a heap block
	n      int
}

func (l *sampleLog) add(s sample) int {
	if l.n%sampleChunk == 0 {
		var block []sample
		m, err := offHeap(sampleChunk * int(unsafe.Sizeof(sample{})))
		if err == nil {
			block = unsafe.Slice((*sample)(unsafe.Pointer(&m[0])), sampleChunk)
		} else {
			m, block = nil, make([]sample, sampleChunk)
		}
		l.blocks, l.maps = append(l.blocks, block), append(l.maps, m)
	}
	l.blocks[l.n/sampleChunk][l.n%sampleChunk] = s
	l.n++
	return l.n - 1
}

func (l *sampleLog) at(i int) *sample { return &l.blocks[i/sampleChunk][i%sampleChunk] }

// appendTo appends the logged samples to out.
func (l *sampleLog) appendTo(out []sample) []sample {
	for i, b := range l.blocks {
		out = append(out, b[:min(sampleChunk, l.n-i*sampleChunk)]...)
	}
	return out
}

// release unmaps the log's blocks; the log is empty after.
func (l *sampleLog) release() {
	for _, m := range l.maps {
		if m != nil {
			_ = syscall.Munmap(m) // a failed unmap only leaks address space until exit
		}
	}
	*l = sampleLog{}
}

// spoolChunk is the size of one spool mapping.
const spoolChunk = 64 << 20

// spool keeps response bodies off the heap until the measured phase
// ends. Copying a body in is the only cost the phase sees of the checks
// that need decoding.
type spool struct {
	maps [][]byte
	used int
}

// put copies b into the spool and returns the copy.
func (s *spool) put(b []byte) ([]byte, error) {
	if len(s.maps) == 0 || s.used+len(b) > len(s.maps[len(s.maps)-1]) {
		m, err := offHeap(max(spoolChunk, len(b)))
		if err != nil {
			return nil, fmt.Errorf("spool: %w", err)
		}
		s.maps, s.used = append(s.maps, m), 0
	}
	m := s.maps[len(s.maps)-1]
	out := m[s.used : s.used+len(b) : s.used+len(b)]
	copy(out, b)
	s.used += len(b)
	return out, nil
}

// release unmaps the spool; the copies put returned are invalid after.
func (s *spool) release() {
	for _, m := range s.maps {
		_ = syscall.Munmap(m) // a failed unmap only leaks address space until exit
	}
	s.maps, s.used = nil, 0
}

// deferred is an answer whose check waits until the measured phase ends.
type deferred struct {
	r      request
	body   []byte // in the sender's spool
	sample int    // index in the sender's sampleLog
}

// sender is one client goroutine of the measured phase.
type sender struct {
	c       *client
	log     sampleLog
	spool   spool
	pending []deferred
	// segs hands the sender each slice to run; err is its first failure.
	segs chan segment
	err  error
	// next is the request pulled but not yet sent, when carrying: an open
	// loop's request scheduled past the slice, or a closed loop's pulled
	// as the slice ended.
	next     request
	nextWire wire
	carrying bool
}

// settle records the outcome of one exchange. Transport errors, bad
// statuses and quick answers are judged at once; any other answer is
// spooled and judged by checkPending.
func (sd *sender) settle(chk *checker, r request, status int, body []byte, err error, sm sample) {
	if err = statusErr(r.what(), status, body, err); err != nil {
		chk.fail(err)
	} else if r.quick() {
		err = chk.check(r, body)
	} else {
		var kept []byte
		if kept, err = sd.spool.put(body); err != nil {
			chk.fail(err)
		} else {
			sm.ok = true
			sd.pending = append(sd.pending, deferred{r: r, body: kept, sample: sd.log.add(sm)})
			return
		}
	}
	sm.ok = err == nil
	sd.log.add(sm)
}

// checkPending checks every spooled answer, marks the samples of wrong
// ones failed and releases the spool.
func (sd *sender) checkPending(chk *checker) {
	for _, p := range sd.pending {
		if err := chk.check(p.r, p.body); err != nil {
			sd.log.at(p.sample).ok = false
		}
	}
	sd.pending = nil
	sd.spool.release()
}

// phase is the outcome of one untraced measured phase.
type phase struct {
	samples []sample
	slices  []slice
	// elapsed is the whole phase, pauses included; active is the time
	// the slices ran.
	elapsed, active time.Duration
	// cals are the calibrations of the pauses, in order; speed is the
	// host's slowdown over the whole phase, their median.
	cals      []calibration
	speed     speed
	stats     cache.PlansStats
	promDelta map[string]float64
	firstErr  error
}

// rusageCPU returns the process's user plus system CPU time.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one runtime/metrics uint64 value.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	liveHeapMetric   = "/gc/heap/live:bytes"
)

// phaseSlices is the number of time slices the measured phase is cut
// into. The load pauses between slices while the calibration kernel
// runs (calibrate.go), and the end-to-end metrics are read from the
// quieter half of the slices (quietView). A sample keeps its slice's
// index in a byte, so there are at most 256.
const phaseSlices = 30

// calPerPause is the number of calibrations in each pause: before the
// first slice, between slices and after the last.
const calPerPause = 2

// heapWatch records, for each slice, the largest live heap (as marked by
// the last completed GC), sampled every 5 ms while the slice runs.
type heapWatch struct {
	cur  atomic.Int32 // the slice running, or -1 in a pause
	peak []uint64     // written by the watching goroutine only
	stop chan struct{}
	done chan struct{}
}

func startHeapWatch(slices int) *heapWatch {
	hw := &heapWatch{peak: make([]uint64, slices), stop: make(chan struct{}), done: make(chan struct{})}
	hw.cur.Store(-1)
	go func() {
		defer close(hw.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-hw.stop:
				return
			case <-tick.C:
				if i := hw.cur.Load(); i >= 0 {
					hw.peak[i] = max(hw.peak[i], readMetric(liveHeapMetric))
				}
			}
		}
	}()
	return hw
}

// finish stops the watching goroutine; peak is final after it returns.
func (hw *heapWatch) finish() {
	close(hw.stop)
	<-hw.done
}

// slice is the measurements of one time slice of the measured phase.
type slice struct {
	index int
	// start and end are offsets from the start of the phase, pauses
	// included; the slice ends when its last response has been read.
	start, end time.Duration
	samples    []sample
	cpu        time.Duration
	allocs     uint64
	heapPeak   uint64
	// steal is the share of the machine's CPU time the host gave to
	// others while the slice ran.
	steal float64
}

// hostSteal reads the machine's steal time and its total CPU time, in
// clock ticks, from /proc/stat. Where that cannot be read both are 0,
// every slice's steal reads 0 and the quiet half of the slices is the
// first half.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseSteal(line)
}

// parseSteal reads the steal time and the total of the CPU times from
// the aggregate "cpu" line of /proc/stat: user nice system idle iowait
// irq softirq steal, then guest times that user and nice already hold.
func parseSteal(line string) (steal, total uint64) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// segment tells the senders which slice to run: the slice runs from
// start for width; an open loop sends the requests scheduled in
// [offset, offset+width) of the arrival schedule.
type segment struct {
	index         int
	start         time.Time
	offset, width time.Duration
}

// scrape reads the numeric samples of /metrics, keyed by the full
// series name including labels.
func scrape(c *client) (map[string]float64, error) {
	status, _, body, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err := statusErr("metrics", status, body, err); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// measure runs the untraced measured phase of w against st for the given
// duration and returns what it saw. The phase is phaseSlices slices of
// d/phaseSlices each, with a pause before, between and after them in
// which the calibration kernel times the host's speed.
func measure(w workload, st *stack, chk *checker, kern *calKernel, s *stream, d time.Duration) (phase, error) {
	probe := newClient(st.base)
	defer probe.close()
	before, err := scrape(probe)
	if err != nil {
		return phase{}, err
	}
	stats0 := st.srv.Plans().Stats()
	runtime.GC()

	var ph phase
	pause := func() error {
		cals, err := kern.calibrations(calPerPause)
		ph.cals = append(ph.cals, cals...)
		return err
	}
	senders := make([]*sender, clientCount)
	var wg, segDone sync.WaitGroup
	for g := range senders {
		sd := &sender{c: newClient(st.base), segs: make(chan segment, 1)}
		senders[g] = sd
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sd.c.close()
			for sg := range sd.segs {
				if sd.err == nil {
					sd.err = sd.runSlice(w, s, chk, sg)
				}
				segDone.Done()
			}
		}()
	}
	stopSenders := func() {
		for _, sd := range senders {
			close(sd.segs)
		}
		wg.Wait()
	}
	senderErr := func() error {
		for _, sd := range senders {
			if sd.err != nil {
				return sd.err
			}
		}
		return nil
	}

	hw := startHeapWatch(phaseSlices)
	width := d / phaseSlices
	t0 := now()
	for i := 0; i < phaseSlices; i++ {
		if err := pause(); err != nil {
			stopSenders()
			hw.finish()
			return phase{}, err
		}
		cpu0, alloc0 := rusageCPU(), readMetric(allocBytesMetric)
		steal0, total0 := hostSteal()
		start := now()
		hw.cur.Store(int32(i))
		segDone.Add(len(senders))
		for _, sd := range senders {
			sd.segs <- segment{index: i, start: start, offset: width * time.Duration(i), width: width}
		}
		segDone.Wait()
		hw.cur.Store(-1)
		end := now()
		steal1, total1 := hostSteal()
		ph.slices = append(ph.slices, slice{index: i, start: start.Sub(t0), end: end.Sub(t0),
			cpu: rusageCPU() - cpu0, allocs: readMetric(allocBytesMetric) - alloc0,
			steal: float64(steal1-steal0) / float64(max(1, total1-total0))})
		ph.active += end.Sub(start)
		if senderErr() != nil {
			break
		}
	}
	stopSenders()
	hw.finish()
	if err := senderErr(); err != nil {
		return phase{}, err
	}
	if err := pause(); err != nil {
		return phase{}, err
	}
	ph.elapsed = now().Sub(t0)
	for i := range ph.slices {
		ph.slices[i].heapPeak = hw.peak[i]
	}
	ph.speed = medianSpeed(ph.cals)
	// The spooled answers are checked only now, after the last slice has
	// closed, so neither their decoding and verification nor the
	// allocations that takes count in the phase's metrics.
	for _, sd := range senders {
		sd.checkPending(chk)
	}
	for _, sd := range senders {
		ph.samples = sd.log.appendTo(ph.samples)
		sd.log.release()
	}
	for _, s := range ph.samples {
		ph.slices[s.slice].samples = append(ph.slices[s.slice].samples, s)
	}
	stats1 := st.srv.Plans().Stats()
	ph.stats = diffStats(stats1, stats0)
	after, err := scrape(probe)
	if err != nil {
		return phase{}, err
	}
	ph.promDelta = map[string]float64{}
	for _, name := range []string{"cycled_pool_coalesced_total", "cycled_shed_total", "cycled_degraded_total"} {
		ph.promDelta[name] = after[name] - before[name]
	}
	chk.mu.Lock()
	ph.firstErr = chk.firstErr
	chk.mu.Unlock()
	if len(ph.samples) == 0 {
		return ph, errors.New("no request completed in the measured phase")
	}
	return ph, nil
}

// runSlice sends requests for one slice. A closed loop sends back to
// back until the slice's width has passed; an open loop sends each
// request at its scheduled time within the slice. The request that
// falls past the slice is kept for the next one.
func (sd *sender) runSlice(w workload, s *stream, chk *checker, sg segment) error {
	deadline := sg.start.Add(sg.width)
	for {
		if !sd.carrying {
			sd.next, _ = s.next()
			wr, err := chk.wireOf(sd.next)
			if err != nil {
				return err
			}
			sd.nextWire, sd.carrying = wr, true
		}
		r, wr := sd.next, sd.nextWire
		pulled := now()
		var sched time.Time
		if w.open {
			if r.at >= sg.offset+sg.width {
				return nil
			}
			sched = sg.start.Add(r.at - sg.offset)
			waitUntil(sched)
		} else if !pulled.Before(deadline) {
			return nil
		}
		sd.carrying = false
		start := now()
		status, _, body, err := sd.c.do(wr.method, wr.path, wr.ctype, wr.body)
		end := now()
		sm := sample{class: r.class(), slice: uint8(sg.index), latency: ticks(end.Sub(start))}
		if w.open {
			sm.lateness = ticks(start.Sub(sched))
			if pulled.After(sched) {
				// Both senders were still busy when the request was
				// due: the server held it up, so its wait counts. A
				// sender that was idle by then lost only its own
				// timer's wake-up, which the server did not cause;
				// that shows in the lateness alone.
				sm.latency = ticks(end.Sub(sched))
				sm.queued = true
			}
		}
		sd.settle(chk, r, status, body, err, sm)
	}
}

// diffStats subtracts the counters of a from b (entries are taken from b).
func diffStats(b, a cache.PlansStats) cache.PlansStats {
	d := func(x, y cache.Stats) cache.Stats {
		return cache.Stats{
			Hits:      x.Hits - y.Hits,
			Misses:    x.Misses - y.Misses,
			Coalesced: x.Coalesced - y.Coalesced,
			Abandoned: x.Abandoned - y.Abandoned,
			Cancelled: x.Cancelled - y.Cancelled,
			Evictions: x.Evictions - y.Evictions,
			Entries:   x.Entries,
		}
	}
	return cache.PlansStats{Coverings: d(b.Coverings, a.Coverings), Networks: d(b.Networks, a.Networks)}
}
