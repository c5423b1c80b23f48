// Package distributor is the multi-tenant front end of the distributed
// ingest tier: it resolves each wire batch to a tenant and a set of
// stream keys, applies per-tenant quotas and the shared overload gate
// once — before replication, so every replica sees the identical
// post-gate stream — and fans the admitted events out to the RF shard
// replicas the consistent-hash ring names for each, one delivery per
// destination shard, with hedging on replica failure and quorum-ack
// semantics: an event is acknowledged only when a majority of its
// replica set durably applied it, which is what makes killing any
// single shard lose nothing that was acknowledged.
//
// Placement is deliberately tenant-agnostic: the stream key is the TID
// alone, because durable events do not carry a tenant and drain must be
// able to re-derive every key from the store. Tenancy drives quotas and
// accounting (internal/ingest's tenant table), never placement.
package distributor

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"btrace/internal/ingest"
	"btrace/internal/overload"
	"btrace/internal/ring"
	"btrace/internal/store"
	"btrace/internal/tracer"
)

// Config shapes a Distributor.
type Config struct {
	// Replication is the replica count per stream key (default 2,
	// clamped to the shard count by the ring).
	Replication int
	// HedgeLimit is how many extra ring candidates beyond the owner set
	// a failed quorum may hedge to (default 1).
	HedgeLimit int
	// Overrides are the per-tenant quota overrides (-tenant-overrides).
	Overrides map[string]ingest.TenantLimit
	// Gate configures the shared overload gate applied after the tenant
	// quota and before replication.
	Gate overload.Config
	// Publish, when set, receives every non-empty admitted batch under
	// its tenant, before replication (the /live fan-out,
	// live.Hub.Publish; see ingest.NewAdmission for its contract).
	Publish func(tenant string, es []tracer.Entry)
	// RecordStamps makes Ingest return the acked/refused stamp sets —
	// the chaos tests' accounting hook; off in production paths.
	RecordStamps bool
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.HedgeLimit < 0 {
		c.HedgeLimit = 0
	} else if c.HedgeLimit == 0 {
		c.HedgeLimit = 1
	}
	return c
}

// Result is one Ingest call's event-exact accounting:
// Seen == Throttled + GateDropped + Acked + Refused.
type Result struct {
	Tenant string
	// Seen is the batch size offered.
	Seen int
	// Throttled events were dropped by the tenant's quota override.
	Throttled int
	// GateDropped events were dropped by the shared overload gate
	// (sampled out, rate-limited, or shed).
	GateDropped int
	// Acked events reached quorum on their replica set: durably applied
	// on a majority, guaranteed to survive any single shard failure.
	Acked int
	// Refused events failed quorum even after hedging; the client
	// should retry the batch.
	Refused int
	// AckedStamps and RefusedStamps carry the per-event outcome when
	// Config.RecordStamps is set.
	AckedStamps   []uint64
	RefusedStamps []uint64
}

// Stats are the distributor's cumulative counters, safe to read
// concurrently.
type Stats struct {
	Batches       uint64
	EventsSeen    uint64
	Throttled     uint64
	GateDropped   uint64
	Acked         uint64
	Refused       uint64
	Quarantined   uint64 // entries the front-door verifier flagged (replicated, never shed)
	ReplicaErrors uint64 // failed deliveries
	Hedges        uint64 // deliveries diverted to a non-owner candidate
	DrainMoved    uint64 // events re-placed by DrainShard
}

// Distributor routes tenant traffic across the shard ring.
type Distributor struct {
	cfg Config

	// adm is the admission policy, applied once per batch before
	// replication.
	adm *ingest.Admission

	// topo guards the ring pointer, the shard table and targets. Lookups
	// take the read side, Ingest for its whole call; topology changes the
	// write side.
	topo   sync.RWMutex
	ring   *ring.Ring
	shards map[string]Shard
	// targets is the shard table in the ring's index order (ring.Owners
	// answers in indexes), rebuilt with every ring swap.
	targets []Shard

	obs *distObs
}

// New builds a distributor over the given shards.
func New(shards []Shard, cfg Config) (*Distributor, error) {
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(shards))
	table := make(map[string]Shard, len(shards))
	for _, sh := range shards {
		if _, dup := table[sh.Name()]; dup {
			return nil, fmt.Errorf("distributor: duplicate shard %q", sh.Name())
		}
		table[sh.Name()] = sh
		names = append(names, sh.Name())
	}
	r, err := ring.New(names, ring.Config{Replicas: cfg.Replication})
	if err != nil {
		return nil, fmt.Errorf("distributor: %w", err)
	}
	d := &Distributor{
		cfg:    cfg,
		adm:    ingest.NewAdmission(cfg.Gate, cfg.Overrides, cfg.Publish),
		shards: table,
		obs:    newDistObs(),
	}
	d.setRingLocked(r)
	d.obs.shards.Set(int64(len(table)))
	d.obs.replication.Set(int64(cfg.Replication))
	d.registerObs()
	return d, nil
}

// streamKey derives the placement key for an entry: the TID alone (see
// the package comment for why the tenant is excluded).
func streamKey(tid uint32) string { return strconv.FormatUint(uint64(tid), 10) }

// fanout is one Ingest call's routing scratch, pooled across calls. The
// per-shard slices are indexed like Distributor.targets.
type fanout struct {
	walkAt map[uint32]int32 // TID → offset of its ring walk in walks
	walks  []int            // ring walks, width shard indexes each: owners first, hedges after
	evWalk []int32          // per admitted event: its walk's offset in walks
	acks   []uint8          // per admitted event: replicas that applied it

	sub     [][]tracer.Entry // per shard: this round's sub-batch, in batch order
	idx     [][]int32        // per shard: the admitted index of each sub-batch entry
	applied []bool           // per shard: this round's delivery succeeded
}

var fanoutPool = sync.Pool{New: func() any { return &fanout{walkAt: make(map[uint32]int32)} }}

// reset sizes the scratch for a batch of events over shards.
func (f *fanout) reset(shards, events int) {
	clear(f.walkAt)
	f.walks = f.walks[:0]
	f.evWalk = append(f.evWalk[:0], make([]int32, events)...)
	f.acks = append(f.acks[:0], make([]uint8, events)...)
	for len(f.sub) < shards {
		f.sub = append(f.sub, nil)
		f.idx = append(f.idx, nil)
		f.applied = append(f.applied, false)
	}
	f.clearRound()
}

func (f *fanout) clearRound() {
	for si := range f.sub {
		f.sub[si] = f.sub[si][:0]
		f.idx[si] = f.idx[si][:0]
	}
}

// route appends event i to shard si's sub-batch.
func (f *fanout) route(si, i int, e *tracer.Entry) {
	f.sub[si] = append(f.sub[si], *e)
	f.idx[si] = append(f.idx[si], int32(i))
}

// Ingest admits and fans out one tenant batch, blocking until every
// event resolved (quorum reached, or hedges exhausted). Safe for
// concurrent use. Ingest consumes es: verifier, quota and gate filter it
// in place (no per-batch copy), and the surviving entries are shared
// read-only with the shards until the call returns. Nothing retains es,
// nor a payload it points at, past the call — the caller may recycle
// both as soon as it has the Result.
func (d *Distributor) Ingest(tenant string, es []tracer.Entry) Result {
	// Quarantined entries come back with the admitted ones and are
	// replicated with the batch.
	admitted, c := d.adm.Admit(tenant, es)
	res := Result{Tenant: c.Tenant, Seen: c.Seen, Throttled: c.Throttled, GateDropped: c.GateDropped}

	// Held until every delivery has resolved: a topology change waits for
	// the Ingests the old ring routed, so the snapshot AddShard or
	// DrainShard copies from, taken after its ring swap, holds everything
	// the old ring placed.
	d.topo.RLock()
	defer d.topo.RUnlock()
	r, targets := d.ring, d.targets
	rf := r.RF()
	width := min(rf+d.cfg.HedgeLimit, len(targets))
	need := uint8(quorum(rf))

	f := fanoutPool.Get().(*fanout)
	defer fanoutPool.Put(f)
	f.reset(len(targets), len(admitted))

	// One ring walk per TID, one sub-batch per owner shard. Appending in
	// batch order keeps per-thread stamp order inside every shard.
	for i := range admitted {
		tid := admitted[i].TID
		at, ok := f.walkAt[tid]
		if !ok {
			at = int32(len(f.walks))
			f.walks = r.Owners(f.walks, uint64(tid), width)
			f.walkAt[tid] = at
		}
		f.evWalk[i] = at
		for _, si := range f.walks[at : int(at)+rf] {
			f.route(si, i, &admitted[i])
		}
	}
	d.deliverRound(targets, f)

	// Hedge rounds: every event still short of quorum goes to its next
	// ring candidate, grouped per candidate shard like the owners were.
	for h := rf; h < width; h++ {
		f.clearRound()
		short := false
		for i := range admitted {
			if f.acks[i] < need {
				f.route(f.walks[int(f.evWalk[i])+h], i, &admitted[i])
				short = true
			}
		}
		if !short {
			break
		}
		d.obs.hedges.Add(uint64(d.deliverRound(targets, f)))
	}

	for i := range admitted {
		if f.acks[i] >= need {
			res.Acked++
			if d.cfg.RecordStamps {
				res.AckedStamps = append(res.AckedStamps, admitted[i].Stamp)
			}
		} else {
			res.Refused++
			if d.cfg.RecordStamps {
				res.RefusedStamps = append(res.RefusedStamps, admitted[i].Stamp)
			}
		}
	}

	o := d.obs
	o.batches.Add(1)
	o.seen.Add(uint64(res.Seen))
	o.throttled.Add(uint64(res.Throttled))
	o.gateDropped.Add(uint64(res.GateDropped))
	o.acked.Add(uint64(res.Acked))
	o.refused.Add(uint64(res.Refused))
	return res
}

// quorum is the majority of an rf-sized replica set. At rf=2 that is 2
// — write-all — which is exactly what makes RF=2 survive any single
// shard kill with zero acked loss.
func quorum(rf int) int { return rf/2 + 1 }

// deliverRound delivers the round's non-empty sub-batches in parallel,
// credits every applied one to its events' ack counts, and returns how
// many applied.
func (d *Distributor) deliverRound(targets []Shard, f *fanout) int {
	var wg sync.WaitGroup
	for si := range targets {
		f.applied[si] = false
		if len(f.sub[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.applied[si] = d.deliver(targets[si], f.sub[si]) == nil
		}()
	}
	wg.Wait()
	applied := 0
	for si := range targets {
		if f.applied[si] {
			applied++
			for _, i := range f.idx[si] {
				f.acks[i]++
			}
		}
	}
	return applied
}

// deliver writes a batch to one shard, once: every error a shard
// returns is one a second try would meet again (a dead shard, a sticky
// store failure), so a refused delivery counts as a replica error and
// the next hedge candidate is the recovery.
func (d *Distributor) deliver(sh Shard, es []tracer.Entry) error {
	err := sh.Ingest(es)
	if err != nil {
		d.obs.replicaErrors.Add(1)
	}
	return err
}

// setRingLocked swaps the ring and re-derives targets from the shard
// table. Callers hold topo for writing (or own d exclusively).
func (d *Distributor) setRingLocked(r *ring.Ring) {
	names := r.Shards()
	targets := make([]Shard, len(names))
	for i, name := range names {
		targets[i] = d.shards[name]
	}
	d.ring, d.targets = r, targets
}

// Query fans q out across every healthy shard — each scanning its
// segments with up to workers goroutines, at least one — and
// k-way-merges the shards' stamp-ordered runs into one stamp-ordered,
// replica-deduplicated cursor. q.Limit applies to the merged stream
// alone: a shard's duplicates of one stamp must not use up its share.
// The rest of q goes to every shard as it is — q.LengthsOnly included,
// so a CSV or Chrome export of the cluster reads no payload byte on any
// shard (the merge borrows entries and never looks inside a payload).
func (d *Distributor) Query(q store.Query, workers int) (tracer.Cursor, error) {
	limit := q.Limit
	q.Limit = 0
	var curs []tracer.Cursor
	for _, sh := range d.Shards() {
		cur, err := sh.Query(q, workers)
		if err != nil {
			continue // dead replica: its data lives on its peers
		}
		curs = append(curs, cur)
	}
	if len(curs) == 0 {
		return nil, fmt.Errorf("distributor: no healthy shards")
	}
	return NewMergeCursor(curs, limit), nil
}

// Shards returns the current shard set, sorted by name.
func (d *Distributor) Shards() []Shard {
	d.topo.RLock()
	out := make([]Shard, 0, len(d.shards))
	for _, sh := range d.shards {
		out = append(out, sh)
	}
	d.topo.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Shard returns the named shard, or nil.
func (d *Distributor) Shard(name string) Shard {
	d.topo.RLock()
	defer d.topo.RUnlock()
	return d.shards[name]
}

// AddShard joins a shard to the ring and rebalances: new writes to the
// moved hash ranges route to it immediately, and the historical events
// of those ranges are copied over from their old owners before AddShard
// returns, out of one snapshot per peer taken after the ring swap (which
// waited out every Ingest the old ring routed). The copy is what keeps
// the topology invariant — every owner in ring.Lookup(key) possesses
// key's acked events — true across joins; DrainShard relies on it when
// it skips owners that "already" hold a key, so a join without
// rebalance would silently leave the moved ranges one replica short and
// a later drain+crash could lose them.
func (d *Distributor) AddShard(sh Shard) (DrainReport, error) {
	var rep DrainReport
	name := sh.Name()
	d.topo.Lock()
	if _, dup := d.shards[name]; dup {
		d.topo.Unlock()
		return rep, fmt.Errorf("distributor: shard %q already present", name)
	}
	oldRing := d.ring
	newRing, err := oldRing.Add(name)
	if err != nil {
		d.topo.Unlock()
		return rep, err
	}
	d.shards[name] = sh
	d.setRingLocked(newRing)
	d.obs.shards.Set(int64(len(d.shards)))
	peers := make([]Shard, 0, len(d.shards)-1)
	for pname, p := range d.shards {
		if pname != name {
			peers = append(peers, p)
		}
	}
	d.topo.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name() < peers[j].Name() })

	pending := make([]tracer.Entry, 0, drainBatch)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if err := d.deliver(sh, pending); err != nil {
			rep.Failed += len(pending)
		} else {
			rep.Moved += len(pending)
			d.obs.drainMoved.Add(uint64(len(pending)))
		}
		pending = pending[:0]
	}
	batch := make([]tracer.Entry, drainBatch)
	picked := make([]tracer.Entry, 0, drainBatch)
	for _, peer := range peers {
		cur, err := peer.Query(store.Query{}, 1)
		if err != nil {
			// An unreadable peer cannot ship its ranges; the newcomer
			// still serves new writes, and the peer's replicas keep the
			// historical data readable.
			continue
		}
		for {
			n, _, err := cur.Next(batch)
			if err != nil || n == 0 {
				break
			}
			rep.Scanned += n
			picked = picked[:0]
			for i := range batch[:n] {
				key := streamKey(batch[i].TID)
				if !contains(newRing.Lookup(key), name) {
					continue
				}
				// One canonical source per key — its first old owner —
				// so the newcomer gets one copy, not rf. A possessor
				// outside the old owner set ships too: possession beats
				// placement, and duplicates collapse in the merged
				// query view.
				if old := oldRing.Lookup(key); contains(old, peer.Name()) && old[0] != peer.Name() {
					continue
				}
				picked = append(picked, batch[i])
			}
			// The cursor arena is reused across Next calls; retained
			// entries are deep-copied before the next refill.
			pending = tracer.CloneEntries(pending, picked)
			if len(pending) >= drainBatch {
				flush()
			}
		}
		cur.Close()
	}
	flush()
	if rep.Moved > 0 {
		rep.Targets = []string{name}
	}
	return rep, nil
}

// RemoveShard drops a shard from the ring and table without draining it
// — the crash path. The shard itself is returned for the caller to
// close or discard; quorum replication means its acked data remains
// readable from its peers.
func (d *Distributor) RemoveShard(name string) (Shard, error) {
	d.topo.Lock()
	defer d.topo.Unlock()
	sh := d.shards[name]
	if sh == nil {
		return nil, fmt.Errorf("distributor: shard %q not in ring", name)
	}
	r, err := d.ring.Remove(name)
	if err != nil {
		return nil, err
	}
	delete(d.shards, name)
	d.setRingLocked(r)
	d.obs.shards.Set(int64(len(d.shards)))
	return sh, nil
}

// DrainReport accounts one DrainShard run.
type DrainReport struct {
	// Scanned is the events read off the drained shard.
	Scanned int
	// Moved is the events redelivered to new owners (an event moving to
	// two new owners counts twice).
	Moved int
	// Failed is redeliveries that did not apply; the events remain
	// readable from the drained key's surviving replicas.
	Failed int
	// Targets lists the shards that received moved ranges.
	Targets []string
}

// drainBatch is the redelivery granularity of DrainShard.
const drainBatch = 1024

// DrainShard gracefully removes a shard: the ring is re-derived without
// it (so new writes route to the new owners at once), then every event
// it holds is re-placed — delivered only to the owners that are new for
// its key, i.e. exactly the moved hash ranges, never the replicas that
// already hold it — and finally the shard leaves the table. The shard
// is returned for the caller to close.
func (d *Distributor) DrainShard(name string) (Shard, DrainReport, error) {
	var rep DrainReport
	d.topo.Lock()
	sh := d.shards[name]
	if sh == nil {
		d.topo.Unlock()
		return nil, rep, fmt.Errorf("distributor: shard %q not in ring", name)
	}
	oldRing := d.ring
	newRing, err := oldRing.Remove(name)
	if err != nil {
		d.topo.Unlock()
		return nil, rep, err
	}
	// Swap the ring first: from here on, writes route around the
	// draining shard while its data stays queryable until the copy is
	// done. Taking topo for writing waited out the Ingests the old ring
	// routed, so the snapshot below holds everything the shard ever acked.
	d.setRingLocked(newRing)
	d.topo.Unlock()

	cur, err := sh.Query(store.Query{}, 1)
	if err != nil {
		// Shard unreadable (e.g. killed): fall back to crash-removal.
		d.finishRemove(name)
		return sh, rep, fmt.Errorf("distributor: drain %s: %w", name, err)
	}
	pending := make(map[string][]tracer.Entry)
	flush := func(target string) {
		es := pending[target]
		if len(es) == 0 {
			return
		}
		pending[target] = nil
		// A target removed mid-drain counts as a failed replica.
		if tsh := d.Shard(target); tsh == nil || d.deliver(tsh, es) != nil {
			rep.Failed += len(es)
			return
		}
		rep.Moved += len(es)
		d.obs.drainMoved.Add(uint64(len(es)))
	}
	batch := make([]tracer.Entry, drainBatch)
	moved := make(map[string]bool)
	for {
		n, _, err := cur.Next(batch)
		if err != nil || n == 0 {
			break
		}
		rep.Scanned += n
		// The cursor arena is reused across Next calls and the pending
		// buffers outlive it, so retained entries are deep-copied.
		es := tracer.CloneEntries(nil, batch[:n])
		for i := range es {
			key := streamKey(es[i].TID)
			old := oldRing.Lookup(key)
			for _, owner := range newRing.Lookup(key) {
				if contains(old, owner) {
					continue // already a replica of this key
				}
				pending[owner] = append(pending[owner], es[i])
				moved[owner] = true
				if len(pending[owner]) >= drainBatch {
					flush(owner)
				}
			}
		}
	}
	cur.Close()
	for target := range pending {
		flush(target)
	}
	for target := range moved {
		rep.Targets = append(rep.Targets, target)
	}
	sort.Strings(rep.Targets)
	d.finishRemove(name)
	return sh, rep, nil
}

func (d *Distributor) finishRemove(name string) {
	d.topo.Lock()
	delete(d.shards, name)
	d.obs.shards.Set(int64(len(d.shards)))
	d.topo.Unlock()
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ShardInfo is one shard's row in the /ring view.
type ShardInfo struct {
	Name      string                 `json:"name"`
	Dir       string                 `json:"dir"`
	Healthy   bool                   `json:"healthy"`
	Events    uint64                 `json:"events"`
	Bytes     int64                  `json:"bytes"`
	Ownership float64                `json:"ownership"`
	Pressure  overload.StorePressure `json:"pressure"`
}

// Info is the /ring topology view.
type Info struct {
	Replication int         `json:"replication"`
	VNodes      int         `json:"vnodes"`
	Shards      []ShardInfo `json:"shards"`
}

// Info snapshots the topology: the ring's arc ownership joined with
// each shard's health and store footprint.
func (d *Distributor) Info() Info {
	d.topo.RLock()
	r := d.ring
	shards := make([]Shard, 0, len(d.shards))
	for _, sh := range d.shards {
		shards = append(shards, sh)
	}
	d.topo.RUnlock()
	own := r.Ownership()
	info := Info{Replication: r.RF(), VNodes: ring.DefaultVNodes}
	for _, sh := range shards {
		info.Shards = append(info.Shards, ShardInfo{
			Name:      sh.Name(),
			Dir:       sh.Dir(),
			Healthy:   sh.Healthy(),
			Events:    sh.Events(),
			Bytes:     sh.Size(),
			Ownership: own[sh.Name()],
			Pressure:  sh.Pressure(),
		})
	}
	sort.Slice(info.Shards, func(i, j int) bool { return info.Shards[i].Name < info.Shards[j].Name })
	return info
}

// Stats snapshots the distributor counters.
func (d *Distributor) Stats() Stats {
	o := d.obs
	return Stats{
		Batches:       o.batches.Load(),
		EventsSeen:    o.seen.Load(),
		Throttled:     o.throttled.Load(),
		GateDropped:   o.gateDropped.Load(),
		Acked:         o.acked.Load(),
		Refused:       o.refused.Load(),
		Quarantined:   d.adm.Quarantined(),
		ReplicaErrors: o.replicaErrors.Load(),
		Hedges:        o.hedges.Load(),
		DrainMoved:    o.drainMoved.Load(),
	}
}

// TenantStats snapshots the admission's per-tenant attribution.
func (d *Distributor) TenantStats() map[string]ingest.TenantStats { return d.adm.TenantStats() }

// GateTier returns the gate's engaged shedding tier.
func (d *Distributor) GateTier() overload.Tier { return d.adm.Tier() }

// EvaluateGate feeds the gate one pressure observation assembled from
// the worst store signals across the shard fleet — overload anywhere in
// the replica set is overload, since quorum writes wait for it.
func (d *Distributor) EvaluateGate() {
	var p overload.StorePressure
	for _, sh := range d.Shards() {
		sp := sh.Pressure()
		if sp.StagedFill > p.StagedFill {
			p.StagedFill = sp.StagedFill
		}
		if sp.AppendNs > p.AppendNs {
			p.AppendNs = sp.AppendNs
		}
		if sp.FsyncNs > p.FsyncNs {
			p.FsyncNs = sp.FsyncNs
		}
	}
	d.adm.Evaluate(p)
}

// NotReadyReasons reports why the cluster should refuse traffic — empty
// when it is ready. Mirrors the single-store path's conditions, per
// shard, plus the quorum floor: with fewer healthy shards than a
// replica set needs for majority, no write can be acked.
func (d *Distributor) NotReadyReasons() []string {
	var reasons []string
	healthy := 0
	for _, sh := range d.Shards() {
		if sh.Healthy() {
			healthy++
		} else {
			reasons = append(reasons, fmt.Sprintf("shard %s down or write path failed", sh.Name()))
		}
	}
	d.topo.RLock()
	rf := d.ring.RF()
	d.topo.RUnlock()
	if healthy < quorum(rf) {
		reasons = append(reasons, fmt.Sprintf("only %d healthy shards, quorum needs %d", healthy, quorum(rf)))
	}
	if d.GateTier() >= overload.TierStream {
		reasons = append(reasons, "overload shedding at full-drop tier")
	}
	return reasons
}

// Close closes every shard (in-flight deliveries finish, then the store
// closes), first error wins.
func (d *Distributor) Close() error {
	var first error
	for _, sh := range d.Shards() {
		if err := sh.Close(); err != nil && first == nil {
			first = fmt.Errorf("close shard %s: %w", sh.Name(), err)
		}
	}
	return first
}

// String summarizes the topology for logs.
func (d *Distributor) String() string {
	info := d.Info()
	names := make([]string, len(info.Shards))
	for i, s := range info.Shards {
		names[i] = s.Name
	}
	return fmt.Sprintf("distributor{rf=%d shards=[%s]}", info.Replication, strings.Join(names, " "))
}
