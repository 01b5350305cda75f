package main

import (
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/cryptox"
	"github.com/datacase/datacase/internal/storage"
	"github.com/datacase/datacase/internal/wal"
)

// replayInputs are a workload's own keys, stored rows and payloads,
// taken from a finished round.
type replayInputs struct {
	keys, rows, payloads [][]byte
	cipher               cryptox.KeySize
}

const replaySample = 2048

// sampleInputs reads up to replaySample live rows back from the
// deployments, with the payloads the model holds for them.
func sampleInputs(dbs []*compliance.ShardedDB, m *model, p compliance.Profile) replayInputs {
	in := replayInputs{cipher: p.PayloadCipher}
	if !in.cipher.Valid() {
		in.cipher = cryptox.AES128 // the block-device profile seals nothing itself
	}
	for _, key := range m.keys {
		if len(in.keys) == replaySample {
			break
		}
		for _, db := range dbs {
			i, ok := db.ShardIndexOf(key)
			if !ok {
				continue
			}
			if stored, ok := db.Shard(i).Engine().Get([]byte(key)); ok {
				in.keys = append(in.keys, []byte(key))
				in.rows = append(in.rows, stored)
				in.payloads = append(in.payloads, m.rows[key].payload)
			}
		}
	}
	return in
}

// replayStats are ns per call for the layers the benchmark cannot wrap:
// the storage engine, the WAL and cryptox.
type replayStats map[string]float64

// replay times the public constructors' layers on the inputs, taking
// the median of several passes of each.
func replay(in replayInputs) (replayStats, error) {
	const passes = 5
	n := float64(len(in.keys))
	samples := map[string][]float64{}
	add := func(name string, d time.Duration, calls float64) {
		samples[name] = append(samples[name], ratio(float64(d.Nanoseconds()), calls))
	}
	key, err := cryptox.GenerateKey(in.cipher)
	if err != nil {
		return nil, err
	}
	sealer, err := cryptox.NewAESGCM(key, nil)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < passes; pass++ {
		h := storage.NewHeap("replay", wal.New())
		t := time.Now()
		for i, k := range in.keys {
			if err := h.Insert(k, in.rows[i]); err != nil {
				return nil, fmt.Errorf("replay insert: %w", err)
			}
		}
		add("storage.insert_ns", time.Since(t), n)
		t = time.Now()
		for _, k := range in.keys {
			if _, ok := h.Get(k); !ok {
				return nil, fmt.Errorf("replay get: %s missing", k)
			}
		}
		add("storage.get_ns", time.Since(t), n)
		t = time.Now()
		for i, k := range in.keys {
			if err := h.Update(k, in.rows[i]); err != nil {
				return nil, fmt.Errorf("replay update: %w", err)
			}
		}
		add("storage.update_ns", time.Since(t), n)
		rows := 0
		t = time.Now()
		h.SeqScan(func(_, _ []byte) bool { rows++; return true })
		add("storage.scan_row_ns", time.Since(t), float64(rows))
		t = time.Now()
		for _, k := range in.keys {
			if err := h.Delete(k); err != nil {
				return nil, fmt.Errorf("replay delete: %w", err)
			}
		}
		add("storage.delete_ns", time.Since(t), n)

		l := wal.New()
		t = time.Now()
		for i, k := range in.keys {
			l.Append(wal.RecInsert, k, in.rows[i])
		}
		add("wal.append_ns", time.Since(t), n)

		sealed := make([][]byte, len(in.payloads))
		t = time.Now()
		for i, p := range in.payloads {
			if sealed[i], err = sealer.Seal(p); err != nil {
				return nil, err
			}
		}
		add("cryptox.seal_ns", time.Since(t), n)
		t = time.Now()
		for _, c := range sealed {
			if _, err := sealer.Open(c); err != nil {
				return nil, err
			}
		}
		add("cryptox.open_ns", time.Since(t), n)

		dev, err := cryptox.NewBlockDev([]byte("replay-disk-passphrase"), 96)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		for i, p := range in.payloads {
			if err := dev.WriteSector(i, p); err != nil {
				return nil, err
			}
		}
		add("cryptox.sector_write_ns", time.Since(t), n)
		t = time.Now()
		for i := range in.payloads {
			if _, err := dev.ReadSector(i); err != nil {
				return nil, err
			}
		}
		add("cryptox.sector_read_ns", time.Since(t), n)
	}
	out := replayStats{}
	for name, vs := range samples {
		out[name] = median(vs)
	}
	return out, nil
}
