// Cold-block introspection: the per-block directory metadata, exposed
// for offline tooling (btrace-inspect -blocks, -tiers). The same
// numbers the query planner prunes on — column min/max, TID range,
// bloom fill, section sizes, payload chunking — rendered for an
// operator deciding whether a store's blocks actually prune well under
// their workload.
package store

// ColdBlockInfo describes one cold block as its directory header
// records it. Version 1 blocks carry the shared fields only; the
// columnar extras are v2 and v3.
type ColdBlockInfo struct {
	Seq     uint64 `json:"seq"`
	File    string `json:"file"`
	Index   int    `json:"index"` // position within the file's directory
	Version int    `json:"version"`
	Events  uint64 `json:"events"`

	CompBytes int64 `json:"comp_bytes"` // compressed (columnar: both sections)
	RawBytes  int64 `json:"raw_bytes"`  // frame-equivalent decompressed size

	BaseStamp uint64 `json:"base_stamp"`
	MaxStamp  uint64 `json:"max_stamp"`
	MinTS     uint64 `json:"min_ts"`
	MaxTS     uint64 `json:"max_ts"`
	CoreBits  uint64 `json:"core_bits"`
	CatBits   uint64 `json:"cat_bits"`
	Ordered   bool   `json:"ordered"`

	// Columnar (v2, v3) only.
	MetaBytes    int64 `json:"meta_bytes,omitempty"` // compressed meta section
	MetaRawBytes int64 `json:"meta_raw_bytes,omitempty"`
	PayBytes     int64 `json:"pay_bytes,omitempty"` // compressed payload section, all chunks
	PayRawBytes  int64 `json:"pay_raw_bytes,omitempty"`
	// The payload section is PayChunks DEFLATE streams of ChunkRows rows
	// each (v2: one stream over all the block's rows).
	ChunkRows int     `json:"chunk_rows,omitempty"`
	PayChunks int     `json:"pay_chunks,omitempty"`
	DictSize  int     `json:"dict_size,omitempty"` // category dictionary entries
	MinTID    uint32  `json:"min_tid,omitempty"`
	MaxTID    uint32  `json:"max_tid,omitempty"`
	BloomFill float64 `json:"bloom_fill,omitempty"` // TID bloom set-bit ratio
}

// ColdBlocks returns every cold block's directory metadata, oldest
// segment first, blocks in file order.
func (st *Store) ColdBlocks() []ColdBlockInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []ColdBlockInfo
	for _, s := range st.segs {
		if !s.isCold() {
			continue
		}
		for i := range s.blocks {
			b := &s.blocks[i]
			info := ColdBlockInfo{
				Seq: s.seq, File: s.name, Index: i, Version: 1,
				Events:    b.meta.count,
				CompBytes: b.compLen, RawBytes: b.rawLen,
				BaseStamp: b.meta.baseStamp, MaxStamp: b.meta.maxStamp,
				MinTS: b.meta.minTS, MaxTS: b.meta.maxTS,
				CoreBits: b.meta.coreBits, CatBits: b.meta.catBits,
				Ordered: b.meta.ordered,
			}
			if v := b.v2; v != nil {
				info.Version = v.version
				info.MetaBytes, info.MetaRawBytes = v.metaLen, v.metaRawLen
				info.PayBytes, info.PayRawBytes = v.payLen, v.payRawLen
				info.ChunkRows, info.PayChunks = v.chunkRows, v.payChunks(b.meta.count)
				info.DictSize = v.dictSize
				info.MinTID, info.MaxTID = v.minTID, v.maxTID
				info.BloomFill = v.bloomFill()
			}
			out = append(out, info)
		}
	}
	return out
}
