package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/datacase/datacase/internal/compliance"
)

// procSample is the process-wide cost at one instant: CPU, allocation,
// GC and I/O syscalls. For the wire workloads the servers and the
// gateway run in this process, so their cost is included.
type procSample struct {
	cpu                      time.Duration
	totalAlloc, mallocs      uint64
	numGC                    uint32
	syscr, syscw, rchar, wch uint64
}

func sampleProc() (procSample, error) {
	var s procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.mallocs, s.numGC = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	io, err := readProcIO()
	if err != nil {
		return s, err
	}
	s.syscr, s.syscw, s.rchar, s.wch = io["syscr"], io["syscw"], io["rchar"], io["wchar"]
	return s, nil
}

// readProcIO parses /proc/self/io ("name: value" lines).
func readProcIO() (map[string]uint64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/proc/self/io: %s: %w", name, err)
		}
		out[name] = n
	}
	return out, sc.Err()
}

// layerSample sums the program's own public counters over every shard
// of every deployment under test.
type layerSample struct {
	ops      compliance.Counters
	cacheHit uint64
	checks   uint64 // adjudications asked of the decision cache
	inner    uint64 // adjudications that reached the engine (misses)
	scanned  uint64
	guards   uint64
	invalid  uint64
	logBytes int64
	appends  uint64
	syncs    uint64
	walBytes int64
	lookups  uint64
	scans    uint64
	inserts  uint64
	updates  uint64
	deletes  uint64
	reclaim  uint64
	live     int64
	dead     int64
}

func sampleLayers(dbs []*compliance.ShardedDB) layerSample {
	var s layerSample
	for _, db := range dbs {
		c := db.Counters()
		s.ops.Creates += c.Creates
		s.ops.DataReads += c.DataReads
		s.ops.DataUpdates += c.DataUpdates
		s.ops.Deletes += c.Deletes
		s.ops.MetaReads += c.MetaReads
		s.ops.MetaUpdates += c.MetaUpdates
		s.ops.MetaScans += c.MetaScans
		s.ops.Denials += c.Denials
		s.ops.NotFound += c.NotFound
		s.ops.Vacuums += c.Vacuums
		s.ops.VacuumFulls += c.VacuumFulls
		s.ops.CascadeDeletes += c.CascadeDeletes
		s.logBytes += db.Space().LogBytes
		w := db.WALStats()
		s.appends += w.Appends
		s.syncs += w.Syncs
		for i := 0; i < db.NumShards(); i++ {
			sh := db.Shard(i)
			p := sh.PolicyEngine().Stats()
			s.cacheHit += p.CacheHits
			s.checks += p.CacheHits + p.CacheMisses
			s.inner += p.Checks
			s.scanned += p.PoliciesScanned
			s.guards += p.GuardsEvaluated
			s.invalid += p.CacheInvalidations
			e := sh.Engine()
			st := e.Stats()
			s.lookups += st.Lookups
			s.scans += st.Scans
			s.inserts += st.Inserts
			s.updates += st.Updates
			s.deletes += st.Deletes
			s.reclaim += st.EntriesReclaimed
			sp := e.Space()
			s.live += sp.LiveBytes
			s.dead += sp.DeadBytes
			s.walBytes += e.Log().SizeBytes()
		}
	}
	return s
}

// exact lists the counters that a traced round must reproduce exactly:
// they count what the program did, and a timing decorator that changed
// any of them would be measuring a different program.
func (s layerSample) exact() map[string]uint64 {
	return map[string]uint64{
		"creates": s.ops.Creates, "data_reads": s.ops.DataReads,
		"data_updates": s.ops.DataUpdates, "deletes": s.ops.Deletes,
		"meta_reads": s.ops.MetaReads, "meta_updates": s.ops.MetaUpdates,
		"meta_scans": s.ops.MetaScans, "denials": s.ops.Denials,
		"vacuums": s.ops.Vacuums, "vacuum_fulls": s.ops.VacuumFulls,
		"cascade_deletes": s.ops.CascadeDeletes, "policy_checks": s.checks,
		"wal_appends": s.appends, "engine_lookups": s.lookups,
		"engine_scans": s.scans, "engine_inserts": s.inserts,
		"engine_updates": s.updates, "engine_deletes": s.deletes,
	}
}

// spaceFactor is Table 2's factor over all deployments: total bytes on
// "disk" per byte of live personal data.
func spaceFactor(dbs []*compliance.ShardedDB) float64 {
	var total, personal int64
	for _, db := range dbs {
		r := db.Space()
		total += r.TotalBytes
		personal += r.PersonalBytes
	}
	return ratio(float64(total), float64(personal))
}
