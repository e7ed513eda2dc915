package main

import (
	"fmt"
	"sync"
	"time"

	"springfs/internal/unixapi"
)

// sizes fixes how much work one round of a workload does. The full sizes
// are what BENCHMARK.json's numbers are measured with; the tiny ones exist
// for the smoke test.
type sizes struct {
	devBlocks  int64 // device size of every SFS, in 4 KiB blocks
	inodes     int64 // inode table size of every SFS
	batch      int   // calls per latency sample (see client.sample)
	sideBatch  int   // the same, for microsecond calls on a stack whose script is paced by a modelled delay
	files      int   // files in the small-op working set
	fileBytes  int64 // size of each
	bigBytes   int64 // size of the streaming file
	writeBytes int64 // how much of the streaming file, from its start, one round rewrites (0: all)
	coldBytes  int64 // size of the file only random preads touch (0: none)
	smallOps   int   // latency samples of each small op per round
	randReads  int   // random 4 KiB preads of the streaming file per round
	randWrites int   // random 4 KiB pwrites per round
	syncEvery  int   // fsync after this many random pwrites
	lifecycles int   // file lifecycles per client per round
}

// part is one stack of a workload with its clients and files. layer-sweep
// has five parts; every other workload has one.
type part struct {
	st      *stack
	clients []*client
	*plan         // the files, open on the part's process
	serial  []int // per client: files created so far

	// Filled by measure.
	wall   time.Duration
	rounds int
	delta  counts
	tally  *tally
	spans  []span
}

// workload is one named set of inputs: which stacks, which delay regime,
// how many closed-loop clients, and what one round of calls is. The
// program under test is driven only through unixapi.Process.
type workload struct {
	name    string
	why     string
	regime  regime
	shapes  []stackShape
	clients int
	full    sizes
	tiny    sizes
	// quiet lists the metrics whose calls, on this workload, meet no
	// modelled delay although the script does (an open served from the
	// name cache of a stack on the slow disk); they are sampled and
	// reduced like those of a workload with no modelled delay at all
	// (see estimate).
	quiet []string
	// diskReadsMustBeZero asserts the device saw no read in the window.
	diskReadsMustBeZero bool
	// topStep names what the main stack adds over the ladder's top rung
	// ("" when that step has no metric of its own; layer-sweep's stacks
	// have theirs in layerMetrics). rawRung adds the raw-device rung.
	topStep string
	rawRung bool
	// ladder lists the shorter stacks a traced run repeats the script on,
	// bottom rung first; the main stack is the implicit top rung.
	ladder []rung
	// round is one pass of the workload's own script: what the per-layer
	// metrics, the counts and the assertions describe. It does the same
	// calls every time for a given seed and round number.
	round func(p *part, sz sizes)
	// side runs after each round of an untraced run. The benchmark
	// contract has every workload report every end-to-end metric; side
	// issues, on the same stack, the standard calls the script lacks. It
	// is outside the script's wall time, counts and spans.
	side func(p *part, sz sizes)
}

// rung is one shorter stack of a ladder. metric names what the difference
// in interior time between this rung and the one below measures ("" when
// the step has no metric of its own).
type rung struct {
	shape  stackShape
	regime regime
	metric string
}

var (
	regimeCPU  = regime{}                // no modelled delay anywhere
	regimeDisk = regime{disk: benchDisk} // device-bound
	regimeLAN  = regime{lan: benchLAN}   // round-trip-bound, home disk free
)

const chunk64k = 64 << 10

// plan is the initial file population of one part, generated from the
// seed before any stack exists.
type plan struct {
	dirs  []string     // one per client
	small []*benchFile // the small-op working set
	big   *benchFile   // the streaming file
	cold  *benchFile   // read only at random offsets, so it stays uncached
}

func newPlan(g *gen, sz sizes, clients int) *plan {
	pl := &plan{}
	for i := 0; i < clients; i++ {
		pl.dirs = append(pl.dirs, g.name("dir", i))
	}
	for i := 0; i < sz.files; i++ {
		sh := newShadow(sz.fileBytes)
		g.fill(sh.data)
		pl.small = append(pl.small, &benchFile{path: g.name("small", i), sh: sh})
	}
	if sz.bigBytes > 0 {
		sh := newShadow(sz.bigBytes)
		g.fillHalfCompressible(sh.data)
		pl.big = &benchFile{path: g.name("big", 0), sh: sh}
	}
	if sz.coldBytes > 0 {
		sh := newShadow(sz.coldBytes)
		g.fill(sh.data)
		pl.cold = &benchFile{path: g.name("cold", 0), sh: sh}
	}
	return pl
}

func (pl *plan) files() []*benchFile {
	out := append([]*benchFile(nil), pl.small...)
	for _, f := range []*benchFile{pl.big, pl.cold} {
		if f != nil {
			out = append(out, f)
		}
	}
	return out
}

// populate creates the plan's directories and files on st and fsyncs them.
func (pl *plan) populate(st *stack) error {
	pr := st.newProc()
	for _, dir := range pl.dirs {
		if err := pr.Mkdir(dir); err != nil {
			return fmt.Errorf("mkdir %s: %w", dir, err)
		}
	}
	for _, f := range pl.files() {
		fd, err := pr.Open(f.path, unixapi.O_RDWR|unixapi.O_CREAT|unixapi.O_TRUNC)
		if err != nil {
			return fmt.Errorf("create %s: %w", f.path, err)
		}
		for off := int64(0); off < int64(len(f.sh.data)); off += chunk64k {
			n := min(chunk64k, int64(len(f.sh.data))-off)
			if w, err := pr.Pwrite(fd, f.sh.at(off, n), off); err != nil || int64(w) != n {
				return fmt.Errorf("prefill %s at %d: wrote %d: %v", f.path, off, w, err)
			}
		}
		if err := pr.Fsync(fd); err != nil {
			return fmt.Errorf("fsync %s: %w", f.path, err)
		}
		if err := pr.Close(fd); err != nil {
			return fmt.Errorf("close %s: %w", f.path, err)
		}
	}
	return nil
}

// open opens the plan's files on the part's process and reads the small
// working set once, so the measured window starts with it cached.
func (p *part) open(pl *plan) error {
	c := p.clients[0]
	for _, f := range pl.files() {
		fd, err := c.Open(f.path, unixapi.O_RDWR)
		if err != nil {
			return fmt.Errorf("open %s: %w", f.path, err)
		}
		f.fd = fd
	}
	p.plan = pl
	p.serial = make([]int, len(p.clients))
	warm := newTally()
	saved := c.t
	c.t = warm
	for _, f := range p.small {
		c.seqRead(f, blockSize)
		c.openClose(f)
		c.fstat(f)
	}
	c.t = saved
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return nil
}

// head is the leading sz.writeBytes of the streaming file (all of it when
// writeBytes is 0), as a file of its own sharing descriptor and shadow.
func (p *part) head(sz sizes) *benchFile {
	if sz.writeBytes == 0 {
		return p.big
	}
	return &benchFile{path: p.big.path, fd: p.big.fd, sh: &shadow{data: p.big.sh.data[:sz.writeBytes]}}
}

// pick returns a seeded member of the small-file set.
func (p *part) pick(c *client) *benchFile { return p.small[c.g.rng.Intn(len(p.small))] }

// smallOps takes sz.smallOps latency samples of each of the four small
// calls on the working set.
func (p *part) smallOps(c *client, sz sizes) {
	c.sample("open_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.openClose(p.pick(c)) })
	c.sample("pread4k_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.pread4k(p.pick(c)) })
	c.sample("pwrite4k_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.pwrite4k(p.pick(c)) })
	c.sample("stat_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.fstat(p.pick(c)) })
}

// lifecycleCap bounds the lifecycles one client runs on one stack in one
// invocation. A disklayer cache connection outlives its file, coherency
// binds a new one per file, and several steps of a lifecycle scan the whole
// connection table (fsys.ConnectionTable.ConnectionsFor), so the n-th
// lifecycle costs O(n): about 60 ns per earlier one on sfs-2dom, doubling
// the cost after some 4000 (README.md, "Findings"). Without a cap the
// lifecycle rate of a CPU-bound run would measure how many rounds the
// machine got through before. On the 2+2 ms disk and the 2 ms link a run
// never gets near the cap.
const lifecycleCap = 512

// lifecyclePhase runs sz.lifecycles lifecycles on every client at once and
// records one lifecycle_per_s sample: all clients' lifecycles over the
// wall time until the last client finished.
func (p *part) lifecyclePhase(sz sizes) {
	if p.serial[0] >= lifecycleCap {
		return
	}
	start := time.Now()
	if len(p.clients) == 1 {
		p.clients[0].lifecycles(p.dirs[0], sz.lifecycles, &p.serial[0])
	} else {
		var wg sync.WaitGroup
		for i, c := range p.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.lifecycles(p.dirs[i], sz.lifecycles, &p.serial[i])
			}()
		}
		wg.Wait()
	}
	n := float64(sz.lifecycles * len(p.clients))
	p.clients[0].t.add("lifecycle_per_s", n/time.Since(start).Seconds())
}

// randomWrites does sz.randWrites 4 KiB pwrites at seeded offsets of f,
// fsyncing every sz.syncEvery, and takes one pwrite4k_p50_us sample per
// batch of them.
func (p *part) randomWrites(c *client, f *benchFile, sz sizes, batch int) {
	var d time.Duration
	for i := 1; i <= sz.randWrites; i++ {
		d += c.pwrite4k(f)
		if i%batch == 0 {
			c.t.add("pwrite4k_p50_us", us(d)/float64(batch))
			d = 0
		}
		if i%sz.syncEvery == 0 {
			c.fsync(f)
		}
	}
}

var workloads = []*workload{
	{
		name:   "cached-ops",
		why:    "working set fits every cache: all time is unixapi, naming, proxies, crossings, vm hits and the attribute cache; the device sees no read",
		regime: regimeCPU, shapes: []stackShape{shapeSFS2}, clients: 1,
		full:                sizes{devBlocks: 8192, inodes: 256, batch: 512, files: 16, fileBytes: 16 << 10, smallOps: 8, lifecycles: 2},
		tiny:                sizes{devBlocks: 2048, inodes: 64, batch: 16, files: 8, fileBytes: 16 << 10, smallOps: 2, lifecycles: 1},
		diskReadsMustBeZero: true,
		topStep:             "spring.crossing_us_per_op",
		ladder: []rung{
			{shapeDisk, regimeCPU, "disklayer.self_us_per_op"},
			{shapeSFS1, regimeCPU, "coherency.self_us_per_op"},
		},
		round: func(p *part, sz sizes) { p.smallOps(p.clients[0], sz) },
		side: func(p *part, sz sizes) {
			c := p.clients[0]
			c.seqReadAll(p.small, blockSize, 4)
			c.seqWrite(p.pick(c), chunk64k)
			c.seqWrite(p.pick(c), chunk64k)
			p.lifecyclePhase(sz)
		},
	},
	{
		name:   "disk-stream",
		why:    "a file twice the cache, streamed and then read at random against a 2+2 ms disk: only fewer, larger or overlapped device I/Os help",
		regime: regimeDisk, shapes: []stackShape{shapeSFS2}, clients: 1,
		full:    sizes{sideBatch: 64, devBlocks: 6144, inodes: 128, batch: 1, files: 4, fileBytes: 64 << 10, bigBytes: 16 << 20, writeBytes: 4 << 20, smallOps: 64, randReads: 250, randWrites: 32, syncEvery: 32, lifecycles: 4},
		tiny:    sizes{sideBatch: 4, devBlocks: 2048, inodes: 64, batch: 1, files: 2, fileBytes: 16 << 10, bigBytes: 256 << 10, writeBytes: 64 << 10, smallOps: 4, randReads: 8, randWrites: 4, syncEvery: 4, lifecycles: 2},
		topStep: "spring.crossing_us_per_op", rawRung: true,
		ladder: []rung{
			{shapeDisk, regimeDisk, "disklayer.self_us_per_op"},
			{shapeSFS1, regimeDisk, "coherency.self_us_per_op"},
		},
		round: func(p *part, sz sizes) {
			c := p.clients[0]
			c.seqWrite(p.head(sz), chunk64k)
			p.drop(c)
			c.seqRead(p.big, blockSize)
			p.drop(c)
			c.sample("pread4k_p50_us", sz.randReads, 1, func() time.Duration { return c.pread4k(p.big) })
		},
		quiet: []string{"open_p50_us", "stat_p50_us"},
		side: func(p *part, sz sizes) {
			c := p.clients[0]
			c.sample("open_p50_us", sz.smallOps, sz.sideBatch, func() time.Duration { return c.openClose(p.pick(c)) })
			c.sample("stat_p50_us", sz.smallOps, sz.sideBatch, func() time.Duration { return c.fstat(p.pick(c)) })
			p.randomWrites(c, p.big, sz, 1)
			p.lifecyclePhase(sz)
		},
	},
	{
		name:   "disk-meta",
		why:    "file lifecycles from two clients on the same 2+2 ms disk: journal transactions, group commit, barriers, directory and inode writes, almost no data",
		regime: regimeDisk, shapes: []stackShape{shapeSFS2}, clients: 2,
		full:    sizes{sideBatch: 64, devBlocks: 4096, inodes: 128, batch: 1, files: 4, fileBytes: 64 << 10, bigBytes: 1 << 20, smallOps: 64, randReads: 32, randWrites: 32, syncEvery: 32, lifecycles: 8},
		tiny:    sizes{sideBatch: 4, devBlocks: 2048, inodes: 64, batch: 1, files: 2, fileBytes: 16 << 10, bigBytes: 64 << 10, smallOps: 4, randReads: 4, randWrites: 4, syncEvery: 4, lifecycles: 3},
		topStep: "spring.crossing_us_per_op",
		ladder: []rung{
			{shapeDisk, regimeDisk, "disklayer.self_us_per_op"},
			{shapeSFS1, regimeDisk, "coherency.self_us_per_op"},
		},
		round: func(p *part, sz sizes) { p.lifecyclePhase(sz) },
		quiet: []string{"open_p50_us", "stat_p50_us"},
		side: func(p *part, sz sizes) {
			c := p.clients[0]
			c.sample("open_p50_us", sz.smallOps, sz.sideBatch, func() time.Duration { return c.openClose(p.pick(c)) })
			c.sample("stat_p50_us", sz.smallOps, sz.sideBatch, func() time.Duration { return c.statPath(p.pick(c)) })
			c.seqWrite(p.big, chunk64k)
			// Each sample is three cold passes: one pass is a dozen device
			// reads, and one read more or less moves it by a tenth.
			for i := 0; i < 3; i++ {
				c.coldReads(p, p.big, blockSize, 3)
			}
			p.drop(c)
			c.sample("pread4k_p50_us", sz.randReads, 1, func() time.Duration { return c.pread4k(p.big) })
			p.randomWrites(c, p.big, sz, 1)
		},
	},
	{
		name:   "remote-mixed",
		why:    "one DFS session over a 2 ms link shared by a bulk reader/writer and a small-call client: round trips per call, read-ahead, and small calls queueing behind bulk ones",
		regime: regimeLAN, shapes: []stackShape{shapeDFS}, clients: 2,
		full: sizes{devBlocks: 16384, inodes: 128, batch: 1, files: 4, fileBytes: 64 << 10, bigBytes: 16 << 20, coldBytes: 16 << 20, writeBytes: 1 << 20, smallOps: 8, randWrites: 4096, syncEvery: 4096, lifecycles: 4},
		tiny: sizes{devBlocks: 2048, inodes: 64, batch: 1, files: 2, fileBytes: 16 << 10, bigBytes: 256 << 10, coldBytes: 256 << 10, writeBytes: 128 << 10, smallOps: 2, randWrites: 4, syncEvery: 4, lifecycles: 1},
		ladder: []rung{
			{shapeSFS1, regimeCPU, ""},
			{shapeDFS, regimeCPU, "dfs.cpu_us_per_rpc"},
		},
		round: remoteMixedRound,
		quiet: []string{"pwrite4k_p50_us"},
		side: func(p *part, sz sizes) {
			// Writes into one small cached file: at most its 16 pages are
			// dirty when the fsync ships them home.
			p.randomWrites(p.clients[0], p.small[0], sz, min(256, sz.randWrites))
			p.lifecyclePhase(sz)
		},
	},
	{
		name:   "layer-sweep",
		why:    "one script on each of the five extension layers with no modelled delay, so each layer's own transform, remap or fan-out code dominates",
		regime: regimeCPU, clients: 1,
		shapes: []stackShape{shapeCrypt, shapeComp, shapeSnapClone, shapeMirror, shapeStripe},
		full:   sizes{devBlocks: 8192, inodes: 256, batch: 64, files: 4, fileBytes: 64 << 10, bigBytes: 256 << 10, smallOps: 4, randWrites: 64, syncEvery: 16, lifecycles: 2},
		tiny:   sizes{devBlocks: 2048, inodes: 64, batch: 2, files: 2, fileBytes: 16 << 10, bigBytes: 128 << 10, smallOps: 2, randWrites: 8, syncEvery: 4, lifecycles: 2},
		ladder: []rung{{shapeSFS1, regimeCPU, ""}},
		round:  layerSweepRound,
		side: func(p *part, sz sizes) {
			c := p.clients[0]
			c.sample("open_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.openClose(p.pick(c)) })
			c.sample("pread4k_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.pread4k(p.pick(c)) })
			c.sample("stat_p50_us", sz.smallOps, sz.batch, func() time.Duration { return c.fstat(p.pick(c)) })
		},
	},
}

// layerMetrics names, for each layer-sweep stack, the layer's end-to-end
// metric and its ladder metric.
var layerMetrics = map[stackShape]struct{ mbps, self string }{
	shapeCrypt:     {"cryptfs_MBps", "cryptfs.self_us_per_page"},
	shapeComp:      {"compfs_MBps", "compfs.self_us_per_page"},
	shapeSnapClone: {"snapfs_MBps", "snapfs.self_us_per_page"},
	shapeMirror:    {"mirrorfs_MBps", "mirrorfs.self_us_per_page"},
	shapeStripe:    {"stripefs_MBps", "stripefs.self_us_per_page"},
}

// drop empties the stack's data caches between phases. It is not a call
// of the system under test and is not sampled.
func (p *part) drop(c *client) {
	if err := p.st.dropCaches(); err != nil && c.t.firstErr == nil {
		c.t.failed++
		c.t.firstErr = fmt.Errorf("drop caches: %w", err)
	}
}

// remoteMixedRound runs the bulk client and the small-call client side by
// side on the one session. The bulk client reads the streaming file cold
// (the client cache holds half of it, so a sequential pass always misses)
// and rewrites its first writeBytes; the small-call client keeps issuing
// stat-by-path, open+close and random preads until the bulk pass is done.
func remoteMixedRound(p *part, sz sizes) {
	bulk, small := p.clients[0], p.clients[1]
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			small.sample("stat_p50_us", sz.smallOps, 1, func() time.Duration { return small.statPath(p.pick(small)) })
			small.sample("open_p50_us", sz.smallOps, 1, func() time.Duration { return small.openClose(p.pick(small)) })
			small.sample("pread4k_p50_us", sz.smallOps, 1, func() time.Duration { return small.pread4k(p.cold) })
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	bulk.seqRead(p.big, chunk64k)
	bulk.seqWrite(p.head(sz), chunk64k)
	close(done)
	wg.Wait()
}

// layerSweepRound is the script every extension layer gets: stream the
// file out and fsync, drop caches, read it back in 4 KiB calls, random
// 4 KiB pwrites with an fsync every 64, shrink to mid-block and re-extend,
// then file lifecycles. The layer's metric is the user bytes the whole
// script moved over the script's wall time (measure's script_MBps).
func layerSweepRound(p *part, sz sizes) {
	c := p.clients[0]
	c.seqWrite(p.big, chunk64k)
	p.drop(c)
	c.seqRead(p.big, blockSize)
	p.randomWrites(c, p.big, sz, sz.syncEvery)
	c.truncateCycle(p.big)
	p.lifecyclePhase(sz)
}
