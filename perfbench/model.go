package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/datacase/datacase/internal/compliance"
)

// row is the model's view of one live record: what the program must
// answer about it.
type row struct {
	subject  string
	payload  []byte
	purposes []string
	ttl      int64
	// parent is the key a derived record was derived from ("" for a
	// collected record).
	parent string
	// revoked marks a withdrawn processing consent.
	revoked bool
}

// model is the benchmark's own account of the deployment's live
// records. Every workload asks it which records to target and what the
// program must answer, so operations only ever target live records and
// every answer is checked against a prediction, never against a stored
// copy of earlier output.
type model struct {
	rows map[string]*row
	// keys lists the live keys for uniform draws; pos indexes it.
	keys []string
	pos  map[string]int
	// bySubject lists each subject's live keys in collection order,
	// which is also the heap's physical order: the rights workload never
	// updates a row, and VACUUM FULL keeps the order of the rows it
	// moves.
	bySubject map[string][]string
	// byPurpose counts the live records collected for each purpose.
	byPurpose map[string]int
}

func newModel() *model {
	return &model{
		rows:      map[string]*row{},
		pos:       map[string]int{},
		bySubject: map[string][]string{},
		byPurpose: map[string]int{},
	}
}

func (m *model) live() int { return len(m.keys) }

func (m *model) add(key string, r *row) {
	m.rows[key] = r
	m.pos[key] = len(m.keys)
	m.keys = append(m.keys, key)
	m.bySubject[r.subject] = append(m.bySubject[r.subject], key)
	for _, p := range r.purposes {
		m.byPurpose[p]++
	}
}

func (m *model) remove(key string) {
	r := m.rows[key]
	delete(m.rows, key)
	i := m.pos[key]
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.pos[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.pos, key)
	ks := m.bySubject[r.subject]
	for j, k := range ks {
		if k == key {
			ks = append(ks[:j:j], ks[j+1:]...)
			break
		}
	}
	if len(ks) == 0 {
		delete(m.bySubject, r.subject)
	} else {
		m.bySubject[r.subject] = ks
	}
	for _, p := range r.purposes {
		m.byPurpose[p]--
	}
}

// pick draws a live key uniformly.
func (m *model) pick(rng *rand.Rand) string { return m.keys[rng.Intn(len(m.keys))] }

// updateMeta applies UpdateMeta: the TTL is replaced and a purpose not
// yet held is appended.
func (m *model) updateMeta(key, purpose string, ttl int64) {
	r := m.rows[key]
	r.ttl = ttl
	for _, p := range r.purposes {
		if p == purpose {
			return
		}
	}
	r.purposes = append(r.purposes, purpose)
	m.byPurpose[purpose]++
}

// scanResult predicts ReadByMeta: every matching record is readable by
// the processor (no consent is withdrawn where it is used), so the scan
// reads the matches up to the limit.
func (m *model) scanResult(purpose string, limit int) int {
	return min(m.byPurpose[purpose], limit)
}

// eraseResult predicts EraseSubject: a derived record whose parent is
// also live is removed by the parent's cascade (the parent precedes it
// in physical order) and is not counted as erased directly.
func (m *model) eraseResult(subject string) (direct, cascaded int) {
	for _, k := range m.bySubject[subject] {
		if p := m.rows[k].parent; p != "" && m.rows[p] != nil {
			cascaded++
		} else {
			direct++
		}
	}
	return direct, cascaded
}

// checkMeta compares ReadMeta's answer with the model.
func (m *model) checkMeta(key string, got compliance.Metadata) error {
	r := m.rows[key]
	if got.Subject != r.subject || got.TTL != r.ttl || !equalStrings(got.Purposes, r.purposes) {
		return fmt.Errorf("read-meta %s: got subject=%s ttl=%d purposes=%v, model has %s %d %v",
			key, got.Subject, got.TTL, got.Purposes, r.subject, r.ttl, r.purposes)
	}
	return nil
}

// checkSAR compares a subject-access answer with the subject's live
// records and their payloads.
func (m *model) checkSAR(subject string, got []compliance.SubjectRecord) error {
	want := m.bySubject[subject]
	if len(got) != len(want) {
		return fmt.Errorf("SAR %s: %d records, model has %d", subject, len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		r := m.rows[g.Key]
		if r == nil || seen[g.Key] || r.subject != subject || !bytes.Equal(g.Payload, r.payload) {
			return fmt.Errorf("SAR %s: record %s does not match the model", subject, g.Key)
		}
		seen[g.Key] = true
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
