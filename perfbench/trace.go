package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/policy"
)

// spanKind names a traced boundary.
type spanKind uint8

const (
	spanOp           spanKind = iota // one client-observed operation
	spanPolicyAllow                  // an adjudication that missed the decision cache
	spanPolicyMutate                 // attach / revoke on the policy engine
	spanAuditLog                     // one audit entry written
	spanAuditErase                   // EraseUnit on the audit log
	spanBackend                      // the api.Client a wire server serves
)

var spanNames = [...]string{"op", "policy.allow", "policy.mutate", "audit.log", "audit.erase_unit", "wire.backend"}

// span is one timed interval. op is the operation in flight when the
// span ended (-1 between operations); with one client in a closed loop
// every span that ends inside an operation's interval belongs to it.
// tid is the OS thread the span ran on.
type span struct {
	kind       spanKind
	op         int32
	tid        int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; they are written out after the round.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	curOp int32 // guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), curOp: -1}
}

// reset drops the spans recorded so far (set-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record closes a span that began at start.
func (t *tracer) record(kind spanKind, start int64) {
	end := t.now()
	tid := int32(syscall.Gettid())
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, op: t.curOp, tid: tid, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) beginOp(op int32) {
	t.mu.Lock()
	t.curOp = op
	t.mu.Unlock()
}

func (t *tracer) endOp(op int32, start int64) {
	end := t.now()
	tid := int32(syscall.Gettid())
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: spanOp, op: op, tid: tid, start: start, end: end})
	t.curOp = -1
	t.mu.Unlock()
}

// write saves the spans as CSV (kind,op,tid,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,op,tid,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.op, s.tid, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats are the per-layer figures the spans give.
type spanStats struct {
	ops                         int
	wireSelf, backend, restUs   float64 // µs per op
	allowNs, logNs, eraseUnitUs float64 // per call
	entries                     int
}

// analyse computes self times. A layer's self time is its span minus
// the part of it that its child spans cover. In process the children
// of an operation are its policy spans, on whatever thread they ran
// (read-by-meta adjudicates on fan-out workers), and its audit spans on
// the client's own OS thread (the traced run pins the client to one):
// audit spans on other threads are the async drainer's, which works in
// parallel with the next operation. Over the wire the operation's child
// is the backend span, and the backend's children are the policy and
// audit spans inside it.
func (t *tracer) analyse(overWire bool) spanStats {
	type opSpans struct {
		op                span
		backend, children [][2]int64
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byOp := map[int32]*opSpans{}
	var allowN, logN, eraseN int
	var allowT, logT, eraseT int64
	for _, s := range spans {
		switch s.kind {
		case spanOp:
			byOp[s.op] = &opSpans{op: s}
		case spanPolicyAllow:
			allowN++
			allowT += s.end - s.start
		case spanAuditLog:
			logN++
			logT += s.end - s.start
		case spanAuditErase:
			eraseN++
			eraseT += s.end - s.start
		}
	}
	for _, s := range spans {
		o := byOp[s.op]
		if s.kind == spanOp || o == nil {
			continue
		}
		iv := [2]int64{s.start, s.end}
		switch {
		case s.kind == spanBackend:
			o.backend = append(o.backend, iv)
		case overWire || s.kind == spanPolicyAllow || s.kind == spanPolicyMutate || s.tid == o.op.tid:
			o.children = append(o.children, iv)
		}
	}
	var st spanStats
	var self, backend, rest float64
	for _, o := range byOp {
		st.ops++
		win := [2]int64{o.op.start, o.op.end}
		dur := float64(o.op.end - o.op.start)
		if overWire {
			b := covered(o.backend, win)
			self += dur - b
			backend += b
			rest += b - covered(o.children, win)
		} else {
			rest += dur - covered(o.children, win)
		}
	}
	n := float64(st.ops)
	st.wireSelf = ratio(self, n) / 1e3
	st.backend = ratio(backend, n) / 1e3
	st.restUs = ratio(rest, n) / 1e3
	st.allowNs = ratio(float64(allowT), float64(allowN))
	st.logNs = ratio(float64(logT), float64(logN))
	st.eraseUnitUs = ratio(float64(eraseT), float64(eraseN)) / 1e3
	st.entries = logN
	return st
}

// covered returns how much of win the union of the intervals covers.
func covered(ivs [][2]int64, win [2]int64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	first := true
	for _, iv := range ivs {
		s, e := max(iv[0], win[0]), min(iv[1], win[1])
		if e <= s {
			continue
		}
		switch {
		case first:
			curS, curE, first = s, e, false
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if !first {
		total += curE - curS
	}
	return float64(total)
}

// instrument installs the timing decorators at the profile's two
// injection points: around the engine NewPolicyEngine returns (under
// the decision cache the deployment adds) and around the logger
// NewLogger returns (under the async audit sink).
func instrument(p *compliance.Profile, tr *tracer) {
	newEngine, newLogger := p.NewPolicyEngine, p.NewLogger
	p.NewPolicyEngine = func() policy.Engine { return traceEngine(newEngine(), tr) }
	p.NewLogger = func() (audit.Logger, error) {
		l, err := newLogger()
		if err != nil {
			return nil, err
		}
		return tracedLogger{Logger: l, tr: tr}, nil
	}
}

// tracedEngine times a policy engine. Embedding the interface (not the
// concrete engine) keeps the optional interfaces out of its method
// set; traceEngine adds back exactly those the wrapped engine has, so
// the deployment takes the same paths traced and untraced.
type tracedEngine struct {
	policy.Engine
	tr *tracer
}

type tracedLister struct {
	tracedEngine
	lister policy.PolicyLister
}

func (e tracedLister) PoliciesOf(unit core.UnitID) []core.Policy { return e.lister.PoliciesOf(unit) }

type tracedScoped struct{ tracedEngine }

func (tracedScoped) PolicyMutationsAreTableScoped() {}

type tracedScopedLister struct{ tracedLister }

func (tracedScopedLister) PolicyMutationsAreTableScoped() {}

func traceEngine(e policy.Engine, tr *tracer) policy.Engine {
	te := tracedEngine{Engine: e, tr: tr}
	_, scoped := e.(policy.TableScopedPolicies)
	lister, lists := e.(policy.PolicyLister)
	switch {
	case scoped && lists:
		return tracedScopedLister{tracedLister{te, lister}}
	case lists:
		return tracedLister{te, lister}
	case scoped:
		return tracedScoped{te}
	}
	return te
}

func (e tracedEngine) Allow(req policy.Request) policy.Decision {
	s := e.tr.now()
	d := e.Engine.Allow(req)
	e.tr.record(spanPolicyAllow, s)
	return d
}

func (e tracedEngine) AttachPolicy(unit core.UnitID, subject core.EntityID, p core.Policy) error {
	s := e.tr.now()
	err := e.Engine.AttachPolicy(unit, subject, p)
	e.tr.record(spanPolicyMutate, s)
	return err
}

func (e tracedEngine) AttachPolicies(unit core.UnitID, subject core.EntityID, pols []core.Policy) error {
	s := e.tr.now()
	err := e.Engine.AttachPolicies(unit, subject, pols)
	e.tr.record(spanPolicyMutate, s)
	return err
}

func (e tracedEngine) RevokePolicies(unit core.UnitID) int {
	s := e.tr.now()
	n := e.Engine.RevokePolicies(unit)
	e.tr.record(spanPolicyMutate, s)
	return n
}

func (e tracedEngine) RevokePolicy(unit core.UnitID, purpose core.Purpose, entity core.EntityID) int {
	s := e.tr.now()
	n := e.Engine.RevokePolicy(unit, purpose, entity)
	e.tr.record(spanPolicyMutate, s)
	return n
}

// tracedLogger times an audit logger's writes and unit erasures.
type tracedLogger struct {
	audit.Logger
	tr *tracer
}

func (l tracedLogger) Log(e audit.Entry) error {
	s := l.tr.now()
	err := l.Logger.Log(e)
	l.tr.record(spanAuditLog, s)
	return err
}

func (l tracedLogger) EraseUnit(unit core.UnitID) (int, error) {
	s := l.tr.now()
	n, err := l.Logger.EraseUnit(unit)
	l.tr.record(spanAuditErase, s)
	return n, err
}

// tracedClient times the api.Client a wire server serves.
type tracedClient struct {
	api.Client
	tr *tracer
}

func timed[Req, Resp any](tr *tracer, f func(context.Context, Req) (Resp, error), ctx context.Context, req Req) (Resp, error) {
	s := tr.now()
	resp, err := f(ctx, req)
	tr.record(spanBackend, s)
	return resp, err
}

func (c tracedClient) Create(ctx context.Context, r api.CreateRequest) (api.CreateResponse, error) {
	return timed(c.tr, c.Client.Create, ctx, r)
}

func (c tracedClient) CreateBatch(ctx context.Context, r api.CreateBatchRequest) (api.CreateBatchResponse, error) {
	return timed(c.tr, c.Client.CreateBatch, ctx, r)
}

func (c tracedClient) ReadData(ctx context.Context, r api.ReadDataRequest) (api.ReadDataResponse, error) {
	return timed(c.tr, c.Client.ReadData, ctx, r)
}

func (c tracedClient) UpdateData(ctx context.Context, r api.UpdateDataRequest) (api.UpdateDataResponse, error) {
	return timed(c.tr, c.Client.UpdateData, ctx, r)
}

func (c tracedClient) DeleteData(ctx context.Context, r api.DeleteDataRequest) (api.DeleteDataResponse, error) {
	return timed(c.tr, c.Client.DeleteData, ctx, r)
}

func (c tracedClient) ReadMeta(ctx context.Context, r api.ReadMetaRequest) (api.ReadMetaResponse, error) {
	return timed(c.tr, c.Client.ReadMeta, ctx, r)
}

func (c tracedClient) UpdateMeta(ctx context.Context, r api.UpdateMetaRequest) (api.UpdateMetaResponse, error) {
	return timed(c.tr, c.Client.UpdateMeta, ctx, r)
}

func (c tracedClient) ReadByMeta(ctx context.Context, r api.ReadByMetaRequest) (api.ReadByMetaResponse, error) {
	return timed(c.tr, c.Client.ReadByMeta, ctx, r)
}

func (c tracedClient) SubjectAccess(ctx context.Context, r api.SubjectAccessRequest) (api.SubjectAccessResponse, error) {
	return timed(c.tr, c.Client.SubjectAccess, ctx, r)
}

func (c tracedClient) EraseSubject(ctx context.Context, r api.EraseSubjectRequest) (api.EraseSubjectResponse, error) {
	return timed(c.tr, c.Client.EraseSubject, ctx, r)
}

func (c tracedClient) Revoke(ctx context.Context, r api.RevokeRequest) (api.RevokeResponse, error) {
	return timed(c.tr, c.Client.Revoke, ctx, r)
}

func (c tracedClient) Audit(ctx context.Context, r api.AuditRequest) (api.AuditResponse, error) {
	return timed(c.tr, c.Client.Audit, ctx, r)
}
