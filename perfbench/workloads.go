package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
	"github.com/datacase/datacase/internal/mall"
	"github.com/datacase/datacase/internal/wire"
)

// Sizes of one round. A round is a fixed number of operations on a
// fresh deployment, never a fixed time: on P_SYS the cost of a delete
// grows with the audit log, so rounds of equal length are what make two
// runs comparable.
const (
	shardsPerDeployment = 4
	preloadBatch        = 256
	scanLimit           = 16
	personalTTL         = int64(1) << 40 // no consent window closes in a run

	wcusRecords, wcusOps         = 6000, 6000
	wproRecords, wproOps         = 6000, 12000
	wconRecords, wconOps         = 4000, 12000
	rightsSubjects, rightsPerSub = 1000, 4
	rightsCycles                 = 1200
)

// workload is one benchmark input set.
type workload struct {
	name string
	// overWire marks the workload whose client talks to the deployment
	// through the gateway and the servers; it runs on one P.
	overWire bool
	profile  func() compliance.Profile
	// scenario builds one round's inputs from the seed.
	scenario func(seed int64) scenario
}

// scenario is one round: set-up, the measured operations and the checks
// at its end.
type scenario interface {
	// setup opens the deployments and preloads the dataset through
	// CreateBatch; it is timed as setup_s.
	setup(p compliance.Profile, tr *tracer) error
	// run executes the round's operations, timing each through c, and
	// returns how many of them answered differently from the model.
	run(c *opClock) (failed int)
	// finish checks the deployment's end state against the model.
	finish() error
	dbs() []*compliance.ShardedDB
	model() *model
	// stats reports the benchmark's own engine lookups (to subtract from
	// the program's), and the rows the SARs and erasures examined and
	// returned.
	stats() scenarioStats
	close()
}

type scenarioStats struct {
	harnessLookups      uint64
	examined, results   int
	erasedRows, present int
}

var workloads = []workload{
	{name: "wcus-psys", profile: compliance.PSYS, scenario: newWCus},
	{name: "rights-psys", profile: compliance.PSYS, scenario: newRights},
	{name: "wcon-wire", overWire: true, profile: wconProfile, scenario: newWCon},
	{name: "wpro-pgbench", profile: compliance.PGBench, scenario: newWPro},
	{name: "wpro-wire", overWire: true, profile: wproWireProfile, scenario: newWProWire},
}

// wconProfile is P_Base set up the way datacase-server sets up its
// deployment: with model tracking on, so audits work over the wire.
func wconProfile() compliance.Profile {
	p := compliance.PBase()
	p.TrackModel = true
	return p
}

// wproWireProfile is P_GBench with model tracking on, as datacase-server
// sets up its deployment.
func wproWireProfile() compliance.Profile {
	p := compliance.PGBench()
	p.TrackModel = true
	return p
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opClock times operations from the client's side.
type opClock struct {
	hist *loadgen.Histogram
	tr   *tracer
	n    int32
}

func (c *opClock) begin() time.Time {
	if c.tr != nil {
		c.tr.beginOp(c.n)
	}
	return time.Now()
}

func (c *opClock) end(t0 time.Time) {
	d := time.Since(t0)
	c.hist.RecordDuration(d)
	if c.tr != nil {
		c.tr.endOp(c.n, int64(t0.Sub(c.tr.epoch)))
	}
	c.n++
}

// dataset generates collected records and payloads from the seed.
type dataset struct {
	rng *rand.Rand
	pay *mall.Generator
}

func newDataset(seed int64) *dataset {
	pay, err := mall.NewGenerator(seed+1, 100000, 64)
	if err != nil {
		panic(err) // the arguments are constants
	}
	return &dataset{rng: rand.New(rand.NewSource(seed)), pay: pay}
}

// record builds collected record i of a subject, with two of the
// GDPRBench purposes.
func (d *dataset) record(key, subject string, person int) gdprbench.Record {
	ps := gdprbench.Purposes
	a := d.rng.Intn(len(ps))
	b := (a + 1 + d.rng.Intn(len(ps)-1)) % len(ps)
	return gdprbench.Record{
		Key:        key,
		Subject:    subject,
		Payload:    d.pay.PayloadFor(person),
		Purposes:   []string{ps[a], ps[b]},
		TTL:        personalTTL,
		Processors: []string{gdprbench.Processors[person%len(gdprbench.Processors)]},
	}
}

func modelRow(r gdprbench.Record) *row {
	return &row{subject: r.Subject, payload: r.Payload, purposes: append([]string(nil), r.Purposes...), ttl: r.TTL}
}

// preload admits records through the bulk-ingest path.
func preload(create func([]gdprbench.Record) (int, error), recs []gdprbench.Record) error {
	for i := 0; i < len(recs); i += preloadBatch {
		batch := recs[i:min(i+preloadBatch, len(recs))]
		n, err := create(batch)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if n != len(batch) {
			return fmt.Errorf("preload: %d of %d records created", n, len(batch))
		}
	}
	return nil
}

// erasure remembers an erased row's stored bytes, to prove them
// physically gone once its shard has vacuumed.
type erasure struct {
	shard   *compliance.DB
	stored  []byte
	vacuums uint64
}

// captureErasure reads a live row's stored bytes before it is erased.
func captureErasure(db *compliance.ShardedDB, key string) (erasure, bool) {
	i, ok := db.ShardIndexOf(key)
	if !ok {
		return erasure{}, false
	}
	sh := db.Shard(i)
	stored, ok := sh.Engine().Get([]byte(key))
	c := sh.Counters()
	return erasure{shard: sh, stored: stored, vacuums: c.Vacuums + c.VacuumFulls}, ok
}

// checkErasures verifies forensic absence: every erased row whose shard
// vacuumed after the erasure must be physically gone. It returns how
// many erased rows are still present because their shard has not
// vacuumed since.
func checkErasures(es []erasure) (present int, err error) {
	for _, e := range es {
		c := e.shard.Counters()
		found := e.shard.Engine().ForensicScan(e.stored)
		switch {
		case c.Vacuums+c.VacuumFulls > e.vacuums && found:
			return present, fmt.Errorf("an erased row is physically present after its shard's vacuum")
		case found:
			present++
		}
	}
	return present, nil
}

func checkLen(dbs []*compliance.ShardedDB, m *model) error {
	n := 0
	for _, db := range dbs {
		n += db.Len()
	}
	if n != m.live() {
		return fmt.Errorf("deployment holds %d records, model %d", n, m.live())
	}
	return nil
}

// mix returns n operation kinds in a seeded order, kind i making up
// exactly weights[i] percent of them, so that every round, whatever the
// seed, runs the same operations in a different order.
func mix(rng *rand.Rand, n int, weights ...int) []int {
	kinds := make([]int, 0, n)
	for k, w := range weights {
		for j := 0; j < n*w/100; j++ {
			kinds = append(kinds, k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// mismatch logs the first few failed operations.
type mismatch struct{ n int }

func (m *mismatch) add(err error) {
	if m.n < 5 {
		fmt.Fprintf(stderr, "# mismatch: %v\n", err)
	}
	m.n++
}

// ---- wcus-psys: the GDPRBench Customer mix on P_SYS, in process ----

type wcus struct {
	data    *dataset
	recs    []gdprbench.Record
	m       *model
	db      *compliance.ShardedDB
	erased  []erasure
	lookups uint64
	present int
}

func newWCus(seed int64) scenario {
	s := &wcus{data: newDataset(seed), m: newModel()}
	for i := 0; i < wcusRecords; i++ {
		r := s.data.record(fmt.Sprintf("cus-%06d", i), fmt.Sprintf("person-%05d", i), i)
		s.recs = append(s.recs, r)
		s.m.add(r.Key, modelRow(r))
	}
	return s
}

func (s *wcus) setup(p compliance.Profile, _ *tracer) error {
	db, err := compliance.OpenSharded(p, shardsPerDeployment)
	if err != nil {
		return err
	}
	s.db = db
	return preload(db.CreateBatch, s.recs)
}

func (s *wcus) run(c *opClock) int {
	entity, purpose := compliance.EntitySubjectSvc, compliance.PurposeSubjectAccess
	rng := s.data.rng
	var bad mismatch
	for _, kind := range mix(rng, wcusOps, 20, 20, 20, 20, 20) {
		key := s.m.pick(rng)
		r := s.m.rows[key]
		switch kind {
		case 0:
			t := c.begin()
			got, err := s.db.ReadData(entity, purpose, key)
			c.end(t)
			if err != nil || !bytes.Equal(got, r.payload) {
				bad.add(fmt.Errorf("read-data %s: %v", key, err))
			}
		case 1:
			payload := s.data.pay.PayloadFor(rng.Intn(100000))
			t := c.begin()
			err := s.db.UpdateData(entity, purpose, key, payload)
			c.end(t)
			if err != nil {
				bad.add(fmt.Errorf("update-data %s: %w", key, err))
				continue
			}
			r.payload = payload
		case 2:
			e, ok := captureErasure(s.db, key)
			s.lookups++
			t := c.begin()
			err := s.db.DeleteData(entity, key)
			c.end(t)
			if err != nil || !ok {
				bad.add(fmt.Errorf("delete-data %s: %v", key, err))
				continue
			}
			s.m.remove(key)
			s.erased = append(s.erased, e)
		case 3:
			t := c.begin()
			meta, err := s.db.ReadMeta(entity, purpose, key)
			c.end(t)
			if err == nil {
				err = s.m.checkMeta(key, meta)
			}
			if err != nil {
				bad.add(err)
			}
		case 4:
			np := gdprbench.Purposes[rng.Intn(len(gdprbench.Purposes))]
			ttl := personalTTL + rng.Int63n(1<<20)
			t := c.begin()
			err := s.db.UpdateMeta(entity, purpose, key, np, ttl)
			c.end(t)
			if err != nil {
				bad.add(fmt.Errorf("update-meta %s: %w", key, err))
				continue
			}
			s.m.updateMeta(key, np, ttl)
		}
	}
	return bad.n
}

func (s *wcus) finish() error {
	if err := checkLen(s.dbs(), s.m); err != nil {
		return err
	}
	var err error
	s.present, err = checkErasures(s.erased)
	return err
}

func (s *wcus) model() *model { return s.m }

func (s *wcus) dbs() []*compliance.ShardedDB { return []*compliance.ShardedDB{s.db} }

func (s *wcus) stats() scenarioStats {
	return scenarioStats{harnessLookups: s.lookups, erasedRows: len(s.erased), present: s.present}
}

func (s *wcus) close() {
	if s.db != nil {
		s.db.Close()
	}
}

// ---- wpro-pgbench and wpro-wire: the GDPRBench Processor mix on P_GBench ----

// wpro runs in process, or, with remote set, over the wire through the
// gateway to two servers.
type wpro struct {
	data   *dataset
	recs   []gdprbench.Record
	m      *model
	db     *compliance.ShardedDB
	remote *cluster
}

func newWPro(seed int64) scenario {
	s := &wpro{data: newDataset(seed), m: newModel()}
	for i := 0; i < wproRecords; i++ {
		r := s.data.record(fmt.Sprintf("pro-%06d", i), fmt.Sprintf("person-%05d", i), i)
		s.recs = append(s.recs, r)
		s.m.add(r.Key, modelRow(r))
	}
	return s
}

func newWProWire(seed int64) scenario {
	s := newWPro(seed).(*wpro)
	s.remote = new(cluster)
	return s
}

func (s *wpro) setup(p compliance.Profile, tr *tracer) error {
	if s.remote != nil {
		return s.remote.open(p, tr, s.recs)
	}
	db, err := compliance.OpenSharded(p, shardsPerDeployment)
	if err != nil {
		return err
	}
	s.db = db
	return preload(db.CreateBatch, s.recs)
}

// read and scan issue the mix's two operations in process or over the
// wire.
func (s *wpro) read(key string) ([]byte, error) {
	entity, purpose := compliance.EntityProcessor, compliance.PurposeProcessing
	if s.remote == nil {
		return s.db.ReadData(entity, purpose, key)
	}
	resp, err := s.remote.client.ReadData(context.Background(),
		api.ReadDataRequest{Key: key, Entity: entity, Purpose: purpose})
	return resp.Payload, err
}

func (s *wpro) scan(metaPurpose string) (int, error) {
	entity, purpose := compliance.EntityProcessor, compliance.PurposeProcessing
	if s.remote == nil {
		return s.db.ReadByMeta(entity, purpose, metaPurpose, scanLimit)
	}
	resp, err := s.remote.client.ReadByMeta(context.Background(), api.ReadByMetaRequest{
		Entity: entity, Purpose: purpose, MetaPurpose: metaPurpose, Limit: scanLimit})
	return resp.Matched, err
}

func (s *wpro) run(c *opClock) int {
	rng := s.data.rng
	var bad mismatch
	for _, kind := range mix(rng, wproOps, 80, 20) {
		if kind == 0 {
			key := s.m.pick(rng)
			t := c.begin()
			got, err := s.read(key)
			c.end(t)
			if err != nil || !bytes.Equal(got, s.m.rows[key].payload) {
				bad.add(fmt.Errorf("read-data %s: %v", key, err))
			}
			continue
		}
		p := gdprbench.Purposes[rng.Intn(len(gdprbench.Purposes))]
		t := c.begin()
		n, err := s.scan(p)
		c.end(t)
		if want := s.m.scanResult(p, scanLimit); err != nil || n != want {
			bad.add(fmt.Errorf("read-by-meta %s: %d records (want %d): %v", p, n, want, err))
		}
	}
	return bad.n
}

func (s *wpro) finish() error { return checkLen(s.dbs(), s.m) }
func (s *wpro) model() *model { return s.m }

func (s *wpro) dbs() []*compliance.ShardedDB {
	if s.remote != nil {
		return s.remote.backends
	}
	return []*compliance.ShardedDB{s.db}
}

func (s *wpro) stats() scenarioStats { return scenarioStats{} }

func (s *wpro) close() {
	if s.remote != nil {
		s.remote.close()
	}
	if s.db != nil {
		s.db.Close()
	}
}

// ---- wcon-wire: the GDPRBench Controller mix over the wire on P_Base ----

type wcon struct {
	cluster
	data    *dataset
	recs    []gdprbench.Record
	m       *model
	next    int
	deleted []string
	erased  []erasure
	lookups uint64
	present int
}

func newWCon(seed int64) scenario {
	s := &wcon{data: newDataset(seed), m: newModel()}
	for i := 0; i < wconRecords; i++ {
		s.recs = append(s.recs, s.newRecord())
		s.m.add(s.recs[i].Key, modelRow(s.recs[i]))
	}
	return s
}

func (s *wcon) newRecord() gdprbench.Record {
	i := s.next
	s.next++
	return s.data.record(fmt.Sprintf("con-%06d", i), fmt.Sprintf("person-%05d", i%100000), i%100000)
}

func (s *wcon) setup(p compliance.Profile, tr *tracer) error {
	return s.open(p, tr, s.recs)
}

// capture finds the server deployment holding key.
func (s *wcon) capture(key string) (erasure, bool) {
	for _, db := range s.backends {
		if e, ok := captureErasure(db, key); ok {
			return e, true
		}
	}
	return erasure{}, false
}

func (s *wcon) run(c *opClock) int {
	ctx := context.Background()
	entity, purpose := compliance.EntityController, compliance.PurposeService
	rng := s.data.rng
	var bad mismatch
	for _, kind := range mix(rng, wconOps, 25, 25, 50) {
		switch kind {
		case 0:
			rec := s.newRecord()
			t := c.begin()
			_, err := s.client.Create(ctx, api.CreateRequest{Record: rec})
			c.end(t)
			if err != nil {
				bad.add(fmt.Errorf("create %s: %w", rec.Key, err))
				continue
			}
			s.m.add(rec.Key, modelRow(rec))
		case 1:
			key := s.m.pick(rng)
			e, ok := s.capture(key)
			s.lookups++
			t := c.begin()
			_, err := s.client.DeleteData(ctx, api.DeleteDataRequest{Key: key, Entity: entity})
			c.end(t)
			if err != nil || !ok {
				bad.add(fmt.Errorf("delete %s: %v", key, err))
				continue
			}
			s.m.remove(key)
			s.deleted = append(s.deleted, key)
			s.erased = append(s.erased, e)
		default:
			key := s.m.pick(rng)
			np := gdprbench.Purposes[rng.Intn(len(gdprbench.Purposes))]
			ttl := personalTTL + rng.Int63n(1<<20)
			t := c.begin()
			_, err := s.client.UpdateMeta(ctx, api.UpdateMetaRequest{
				Key: key, Entity: entity, Purpose: purpose, NewPurpose: np, NewTTL: ttl})
			c.end(t)
			if err != nil {
				bad.add(fmt.Errorf("update-meta %s: %w", key, err))
				continue
			}
			s.m.updateMeta(key, np, ttl)
		}
	}
	return bad.n
}

// finish reads a sample of live and deleted records back over the
// wire, then checks the row count and the erased rows' absence.
func (s *wcon) finish() error {
	ctx := context.Background()
	entity, purpose := compliance.EntityController, compliance.PurposeService
	for i, key := range s.m.keys {
		if i == 256 {
			break
		}
		resp, err := s.client.ReadMeta(ctx, api.ReadMetaRequest{Key: key, Entity: entity, Purpose: purpose})
		if err == nil {
			err = s.m.checkMeta(key, resp.Meta)
		}
		if err != nil {
			return err
		}
	}
	for i, key := range s.deleted {
		if i == 256 {
			break
		}
		_, err := s.client.ReadMeta(ctx, api.ReadMetaRequest{Key: key, Entity: entity, Purpose: purpose})
		if !errors.Is(err, compliance.ErrNotFound) {
			return fmt.Errorf("read-meta of deleted %s: %v, want not found", key, err)
		}
	}
	if err := checkLen(s.backends, s.m); err != nil {
		return err
	}
	var err error
	s.present, err = checkErasures(s.erased)
	return err
}

func (s *wcon) model() *model { return s.m }

func (s *wcon) dbs() []*compliance.ShardedDB { return s.backends }

func (s *wcon) stats() scenarioStats {
	return scenarioStats{harnessLookups: s.lookups, erasedRows: len(s.erased), present: s.present}
}

// ---- the wire deployment shared by the over-the-wire workloads ----

// cluster is one client connection, through the gateway, to two
// self-hosted servers on loopback, each serving its own deployment.
type cluster struct {
	servers  []*wire.Server
	backends []*compliance.ShardedDB
	gw       *wire.Gateway
	client   *wire.RemoteClient
}

const clusterServers = 2

// open starts the servers and the gateway, dials the gateway and
// preloads recs through it.
func (c *cluster) open(p compliance.Profile, tr *tracer, recs []gdprbench.Record) error {
	var addrs []string
	for i := 0; i < clusterServers; i++ {
		db, err := compliance.OpenSharded(p, shardsPerDeployment)
		if err != nil {
			return err
		}
		c.backends = append(c.backends, db)
		var backend api.Client = api.NewLocal(db)
		if tr != nil {
			backend = tracedClient{Client: backend, tr: tr}
		}
		srv := wire.NewServer(backend)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		c.servers = append(c.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	gw, err := wire.NewGateway(1, addrs)
	if err != nil {
		return err
	}
	c.gw = gw
	if err := gw.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	if c.client, err = wire.Dial(gw.Addr()); err != nil {
		return err
	}
	return preload(func(batch []gdprbench.Record) (int, error) {
		resp, err := c.client.CreateBatch(context.Background(), api.CreateBatchRequest{Records: batch})
		return resp.Created, err
	}, recs)
}

func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c.client != nil {
		c.client.Close()
	}
	if c.gw != nil {
		c.gw.Shutdown(ctx)
	}
	for _, srv := range c.servers {
		srv.Shutdown(ctx)
	}
	for _, db := range c.backends {
		db.Close()
	}
}

// ---- rights-psys: data-subject rights on P_SYS, in process ----

type rights struct {
	data     *dataset
	recs     []gdprbench.Record
	derived  [][2]string // {derived key, parent key} made at set-up
	subjects []string
	m        *model
	next     int
	db       *compliance.ShardedDB
	erased   []erasure
	lookups  uint64
	examined int
	results  int
	present  int
}

// summarise is the derivation the workload records: a summary that
// keeps the parent's subject identifiable, so erasing the parent must
// cascade to it.
func summarise(parents [][]byte) []byte {
	p := parents[0]
	return append([]byte("summary:"), p[:min(len(p), 24)]...)
}

// hasDerived gives every other subject a derived record.
func hasDerived(subject int) bool { return subject%2 == 0 }

func newRights(seed int64) scenario {
	s := &rights{data: newDataset(seed), m: newModel()}
	for i := 0; i < rightsSubjects; i++ {
		subject := fmt.Sprintf("person-%05d", i)
		s.subjects = append(s.subjects, subject)
		recs := s.collect(i)
		s.recs = append(s.recs, recs...)
		for _, r := range recs {
			s.m.add(r.Key, modelRow(r))
		}
		if hasDerived(i) {
			d := [2]string{s.deriveKey(), recs[0].Key}
			s.derived = append(s.derived, d)
			s.addDerived(d[0], d[1])
		}
	}
	return s
}

// collect makes the records of subject i under fresh keys.
func (s *rights) collect(i int) []gdprbench.Record {
	recs := make([]gdprbench.Record, rightsPerSub)
	for j := range recs {
		recs[j] = s.data.record(fmt.Sprintf("rts-%07d", s.next), s.subjects[i], i)
		s.next++
	}
	return recs
}

func (s *rights) deriveKey() string {
	s.next++
	return fmt.Sprintf("rts-%07d", s.next-1)
}

func (s *rights) addDerived(key, parent string) {
	parentRow := s.m.rows[parent]
	s.m.add(key, &row{subject: parentRow.subject, payload: summarise([][]byte{parentRow.payload}), parent: parent})
}

func (s *rights) setup(p compliance.Profile, _ *tracer) error {
	db, err := compliance.OpenSharded(p, shardsPerDeployment)
	if err != nil {
		return err
	}
	s.db = db
	if err := preload(db.CreateBatch, s.recs); err != nil {
		return err
	}
	for _, d := range s.derived {
		if err := db.Derive(compliance.EntityController, compliance.PurposeService, d[0],
			[]string{d[1]}, summarise, false, "summary"); err != nil {
			return fmt.Errorf("derive %s: %w", d[0], err)
		}
	}
	return nil
}

// pickRevocable draws a collected record whose processing consent is
// still given.
func (s *rights) pickRevocable(rng *rand.Rand) (string, bool) {
	for try := 0; try < 64; try++ {
		k := s.m.pick(rng)
		if r := s.m.rows[k]; r.parent == "" && !r.revoked {
			return k, true
		}
	}
	return "", false
}

func (s *rights) homeLen(subject string) int { return s.db.Shard(s.db.SubjectHome(subject)).Len() }

func (s *rights) run(c *opClock) int {
	rng := s.data.rng
	var bad mismatch
	for i := 0; i < rightsCycles; i++ {
		// Subject access.
		si := rng.Intn(len(s.subjects))
		subject := s.subjects[si]
		s.examined += s.homeLen(subject)
		t := c.begin()
		got, err := s.db.SubjectAccess(subject)
		c.end(t)
		s.results += len(got)
		if err == nil {
			err = s.m.checkSAR(subject, got)
		}
		if err != nil {
			bad.add(err)
		}

		// Consent revocation, then the processor's read of the record.
		if key, ok := s.pickRevocable(rng); ok {
			t = c.begin()
			err = s.db.RevokeConsent(key, compliance.PurposeProcessing, compliance.EntityProcessor)
			c.end(t)
			if err != nil {
				bad.add(fmt.Errorf("revoke %s: %w", key, err))
			} else {
				s.m.rows[key].revoked = true
			}
			t = c.begin()
			_, err = s.db.ReadData(compliance.EntityProcessor, compliance.PurposeProcessing, key)
			c.end(t)
			if !errors.Is(err, compliance.ErrDenied) {
				bad.add(fmt.Errorf("processor read after revoke %s: %v, want denied", key, err))
			}
		}

		// Erasure of a subject, its checks, and re-collection.
		si = rng.Intn(len(s.subjects))
		subject = s.subjects[si]
		keys := append([]string(nil), s.m.bySubject[subject]...)
		direct, cascaded := s.m.eraseResult(subject)
		for _, k := range keys {
			if e, ok := captureErasure(s.db, k); ok {
				s.erased = append(s.erased, e)
			}
			s.lookups++
		}
		before := s.db.Counters().CascadeDeletes
		s.examined += s.homeLen(subject)
		t = c.begin()
		n, err := s.db.EraseSubject(compliance.EntitySubjectSvc, subject)
		c.end(t)
		s.results += len(keys)
		if grew := s.db.Counters().CascadeDeletes - before; err != nil || n != direct || grew != uint64(cascaded) {
			bad.add(fmt.Errorf("erase %s: erased %d, cascaded %d (model %d, %d): %v",
				subject, n, grew, direct, cascaded, err))
		}
		for _, k := range keys {
			s.m.remove(k)
		}
		s.examined += s.homeLen(subject)
		t = c.begin()
		got, err = s.db.SubjectAccess(subject)
		c.end(t)
		if err != nil || len(got) != 0 {
			bad.add(fmt.Errorf("SAR after erasing %s: %d records: %v", subject, len(got), err))
		}
		t = c.begin()
		_, err = s.db.ReadData(compliance.EntitySubjectSvc, compliance.PurposeSubjectAccess, keys[0])
		c.end(t)
		if !errors.Is(err, compliance.ErrNotFound) {
			bad.add(fmt.Errorf("read of erased %s: %v, want not found", keys[0], err))
		}

		recs := s.collect(si)
		t = c.begin()
		created, err := s.db.CreateBatch(recs)
		c.end(t)
		if err != nil || created != len(recs) {
			bad.add(fmt.Errorf("re-collect %s: %d created: %v", subject, created, err))
			continue
		}
		for _, r := range recs {
			s.m.add(r.Key, modelRow(r))
		}
		if hasDerived(si) {
			key := s.deriveKey()
			t = c.begin()
			err = s.db.Derive(compliance.EntityController, compliance.PurposeService, key,
				[]string{recs[0].Key}, summarise, false, "summary")
			c.end(t)
			if err != nil {
				bad.add(fmt.Errorf("derive %s: %w", key, err))
				continue
			}
			s.addDerived(key, recs[0].Key)
		}
	}
	return bad.n
}

func (s *rights) finish() error {
	if err := checkLen(s.dbs(), s.m); err != nil {
		return err
	}
	var err error
	s.present, err = checkErasures(s.erased)
	return err
}

func (s *rights) model() *model { return s.m }

func (s *rights) dbs() []*compliance.ShardedDB { return []*compliance.ShardedDB{s.db} }

func (s *rights) stats() scenarioStats {
	return scenarioStats{harnessLookups: s.lookups, examined: s.examined, results: s.results,
		erasedRows: len(s.erased), present: s.present}
}

func (s *rights) close() {
	if s.db != nil {
		s.db.Close()
	}
}
