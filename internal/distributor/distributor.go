package distributor

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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
	DrainMoved    uint64 // events copied to new owners by AddShard and DrainShard
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
	d.obs.replication.Set(int64(cfg.Replication))
	d.registerObs()
	return d, nil
}

// fanout is one Ingest call's routing scratch, pooled across calls. The
// per-shard slices are indexed like Distributor.targets.
type fanout struct {
	walks  []int   // per framed event, its ring walk: width shard indexes, owners first, hedges after
	evWalk []int32 // per admitted event: its walk's offset in walks
	acks   []uint8 // per admitted event: replicas that applied it

	batch store.Batch // the admitted events, framed once for every replica
	rows  [][]int32   // per shard: this round's rows of batch, in batch order
}

var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// reset sizes the scratch for a batch of events over shards.
func (f *fanout) reset(shards, events int) {
	f.walks = f.walks[:0]
	f.evWalk = append(f.evWalk[:0], make([]int32, events)...)
	f.acks = append(f.acks[:0], make([]uint8, events)...)
	for len(f.rows) < shards {
		f.rows = append(f.rows, nil)
	}
	f.clearRound()
}

func (f *fanout) clearRound() {
	for si := range f.rows {
		f.rows[si] = f.rows[si][:0]
	}
}

// Ingest admits and fans out one tenant batch, blocking until every
// event resolved (quorum reached, or hedges exhausted). Safe for
// concurrent use. Ingest consumes es: verifier, quota and gate filter it
// in place (no per-batch copy), and the surviving entries are framed
// once into a pooled store.Batch that every delivery writes its rows
// from. An entry that cannot be framed (an oversized payload) is
// refused and the rest delivered. Nothing retains es, nor a payload it
// points at, past the call — the caller may recycle both as soon as it
// has the Result.
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
	// Every replica writes its rows out of this one encoding. A row that
	// cannot be framed goes nowhere and ends refused.
	f.batch.Encode(admitted)

	// Each event's walk comes out of the ring's memo (a thread is walked
	// once per ring, not once per batch), one row list per owner shard.
	// Listing rows in batch order keeps per-thread stamp order inside
	// every shard.
	for i := range admitted {
		if !f.batch.Framed(i) {
			continue
		}
		at := int32(len(f.walks))
		f.walks = r.Owners(f.walks, uint64(admitted[i].TID), width)
		f.evWalk[i] = at
		for _, si := range f.walks[at : int(at)+rf] {
			f.rows[si] = append(f.rows[si], int32(i))
		}
	}
	d.deliverRound(targets, f)

	// Hedge rounds: every event still short of quorum goes to its next
	// ring candidate, grouped per candidate shard like the owners were.
	for h := rf; h < width; h++ {
		f.clearRound()
		short := false
		for i := range admitted {
			if f.acks[i] < need && f.batch.Framed(i) {
				si := f.walks[int(f.evWalk[i])+h]
				f.rows[si] = append(f.rows[si], int32(i))
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

// deliverRound delivers the round's non-empty row lists one after
// another on the caller's goroutine, credits every applied one to its
// events' ack counts, and returns how many applied. Deliveries run
// inline, not on goroutines or per-shard workers: a delivery is mostly
// a write under its store's lock, and on a small box a hand-off costs a
// wake-up per delivery while concurrent writes cost more each than the
// same writes in turn.
func (d *Distributor) deliverRound(targets []Shard, f *fanout) int {
	applied := 0
	for si, sh := range targets {
		if len(f.rows[si]) == 0 || d.deliver(sh, &f.batch, f.rows[si]) != nil {
			continue
		}
		applied++
		for _, i := range f.rows[si] {
			f.acks[i]++
		}
	}
	return applied
}

// deliver writes a batch's rows to one shard, once: every error a shard
// returns is one a second try would meet again (a dead shard, a sticky
// store failure), so a refused delivery counts as a replica error and
// the next hedge candidate is the recovery.
func (d *Distributor) deliver(sh Shard, b *store.Batch, rows []int32) error {
	err := sh.Ingest(b, rows)
	if err != nil {
		d.obs.replicaErrors.Add(1)
	}
	return err
}

// setRingLocked swaps the ring and re-derives targets and the shards
// gauge from the shard table. Callers hold topo for writing (or own d
// exclusively).
func (d *Distributor) setRingLocked(r *ring.Ring) {
	names := r.Shards()
	targets := make([]Shard, len(names))
	for i, name := range names {
		targets[i] = d.shards[name]
	}
	d.ring, d.targets = r, targets
	d.obs.shards.Set(int64(len(d.shards)))
}

// Query fans q out across every healthy shard — each shard's pass runs
// on the caller's goroutine, inside the merge's Next — and
// k-way-merges the shards' stamp-ordered runs into one stamp-ordered,
// replica-deduplicated cursor. q.Limit applies to the merged stream
// alone: a shard's duplicates of one stamp must not use up its share.
// The rest of q goes to every shard as it is — q.LengthsOnly included,
// so a CSV or Chrome export of the cluster reads no payload byte on any
// shard (the merge borrows entries and never looks inside a payload).
func (d *Distributor) Query(q store.Query) (tracer.Cursor, error) {
	limit := q.Limit
	q.Limit = 0
	var curs []tracer.Cursor
	for _, sh := range d.Shards() {
		// A dead replica refuses: its data lives on its peers.
		if cur, err := sh.Query(q); err == nil {
			curs = append(curs, cur)
		}
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
// hash ranges it gains route to it at once, and before AddShard returns
// every peer moves it the rows of the threads it gains (see move), out
// of one snapshot per peer taken after the ring swap, which waited out
// every Ingest the old ring routed. The copy keeps the topology
// invariant — every owner the ring names for a thread holds its acked
// events — true across joins; DrainShard relies on it when it skips the
// owners a thread keeps, so a join without the copy would leave the
// gained ranges one replica short and a later drain plus a crash could
// lose them.
func (d *Distributor) AddShard(sh Shard) (DrainReport, error) {
	var rep DrainReport
	name := sh.Name()
	var peers []Shard
	from, to, err := d.reshape(func(r *ring.Ring) (*ring.Ring, error) {
		if d.shards[name] != nil {
			return nil, fmt.Errorf("distributor: shard %q already present", name)
		}
		next, err := r.Add(name)
		if err == nil {
			peers = slices.Collect(maps.Values(d.shards))
			d.shards[name] = sh
		}
		return next, err
	})
	if err != nil {
		return rep, err
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name() < peers[j].Name() })
	for _, peer := range peers {
		// An unreadable peer cannot ship; the newcomer still serves new
		// writes, and the peer's replicas keep its rows readable.
		d.move(peer, from, to, false, &rep)
	}
	return rep, nil
}

// RemoveShard drops a shard from the ring and table without draining it
// — the crash path. The shard itself is returned for the caller to
// close or discard; quorum replication means its acked data remains
// readable from its peers.
func (d *Distributor) RemoveShard(name string) (Shard, error) {
	sh, _, err := d.remove(name, false)
	return sh, err
}

// DrainShard gracefully removes a shard: the ring is re-derived without
// it, so new writes route to the new owners at once, the shard moves
// everything it holds to the owners its threads gain (see move), and
// only then does it leave the shard table, queryable until its copy is
// done. The shard is returned for the caller to close.
func (d *Distributor) DrainShard(name string) (Shard, DrainReport, error) {
	return d.remove(name, true)
}

// remove takes the named shard off the ring, and out of the shard table
// at once on the crash path or after a drain's move.
func (d *Distributor) remove(name string, drain bool) (sh Shard, rep DrainReport, err error) {
	// Taking topo for writing waits out the Ingests the old ring routed,
	// so the snapshot a drain reads holds everything the shard acked.
	from, to, err := d.reshape(func(r *ring.Ring) (*ring.Ring, error) {
		if sh = d.shards[name]; sh == nil {
			return nil, fmt.Errorf("distributor: shard %q not in ring", name)
		}
		next, err := r.Remove(name)
		if err == nil && !drain {
			delete(d.shards, name)
		}
		return next, err
	})
	if err != nil {
		return nil, rep, err
	}
	if !drain {
		return sh, rep, nil
	}
	if err = d.move(sh, from, to, true, &rep); err != nil {
		// Shard unreadable (e.g. killed): it leaves as a crash-removal.
		err = fmt.Errorf("distributor: drain %s: %w", name, err)
	}
	d.reshape(func(r *ring.Ring) (*ring.Ring, error) {
		delete(d.shards, name)
		return r, nil
	})
	return sh, rep, err
}

// reshape makes one topology change under topo held for writing: change
// may edit the shard table and returns the ring to install (or an
// error, having edited nothing); targets and the shards gauge follow.
// It returns the ring it replaced and the one it installed.
func (d *Distributor) reshape(change func(*ring.Ring) (*ring.Ring, error)) (from, to *ring.Ring, err error) {
	d.topo.Lock()
	defer d.topo.Unlock()
	from = d.ring
	if to, err = change(from); err != nil {
		return nil, nil, err
	}
	d.setRingLocked(to)
	return from, to, nil
}

// DrainReport accounts one AddShard or DrainShard run.
type DrainReport struct {
	// Scanned is the events read off the shards that ship: the drained
	// shard, or a joining shard's peers.
	Scanned int
	// Moved is the events delivered to new owners (an event moving to
	// two new owners counts twice).
	Moved int
	// Failed is deliveries to new owners that did not apply; the events
	// remain readable from their thread's other replicas.
	Failed int
	// Targets lists the shards that took moved rows, sorted.
	Targets []string
}

// moveBatch is how many rows a move reads, frames and delivers at once.
const moveBatch = 1024

// move is every copy a ring change makes: it reads src once and
// delivers each row to the owners its thread gains from ring from to
// ring to. A leaving src ships everything it holds. Otherwise src ships
// a thread only as the thread's first owner under from, so each gained
// owner gets one copy rather than rf, or as a holder outside its owners
// (a hedged copy): possession beats placement, and duplicates collapse
// in the merged query view. Placement is by TID, one ring walk per
// thread.
func (d *Distributor) move(src Shard, from, to *ring.Ring, leaving bool, rep *DrainReport) error {
	cur, err := src.Query(store.Query{})
	if err != nil {
		return err
	}
	defer cur.Close()
	fromNames, toNames := from.Shards(), to.Shards()
	self := slices.Index(fromNames, src.Name())
	wasAt := make([]int, len(toNames)) // each to shard's index in from, -1 if new
	for i, name := range toNames {
		wasAt[i] = slices.Index(fromNames, name)
	}
	var (
		gainOf  = make(map[uint32][]int) // TID → to's indexes of the owners it gains
		was, is []int
		rows    = make([][]int32, len(toNames)) // per to shard: the batch's rows it gains
		b       store.Batch
		batch   = make([]tracer.Entry, moveBatch)
	)
	for {
		n, _, err := cur.Next(batch)
		if err != nil || n == 0 {
			break
		}
		rep.Scanned += n
		for i := range batch[:n] {
			tid := batch[i].TID
			gains, ok := gainOf[tid]
			if !ok {
				was = from.Owners(was[:0], uint64(tid), from.RF())
				if leaving || was[0] == self || !slices.Contains(was, self) {
					is = to.Owners(is[:0], uint64(tid), to.RF())
					for _, o := range is {
						if !slices.Contains(was, wasAt[o]) {
							gains = append(gains, o)
						}
					}
				}
				gainOf[tid] = gains
			}
			for _, o := range gains {
				rows[o] = append(rows[o], int32(i))
			}
		}
		if !slices.ContainsFunc(rows, func(rs []int32) bool { return len(rs) > 0 }) {
			continue // nothing read this time moves
		}
		b.Encode(batch[:n]) // read back from a store: every row frames
		for o, rs := range rows {
			if len(rs) == 0 {
				continue
			}
			// A target removed mid-move counts as a failed replica.
			if dst := d.Shard(toNames[o]); dst == nil || d.deliver(dst, &b, rs) != nil {
				rep.Failed += len(rs)
			} else {
				rep.Moved += len(rs)
				d.obs.drainMoved.Add(uint64(len(rs)))
				if !slices.Contains(rep.Targets, toNames[o]) {
					rep.Targets = append(rep.Targets, toNames[o])
				}
			}
			rows[o] = rs[:0]
		}
	}
	sort.Strings(rep.Targets)
	return nil
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
	r, shards := d.ring, slices.Collect(maps.Values(d.shards))
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
