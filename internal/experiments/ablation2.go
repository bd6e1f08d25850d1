package experiments

import (
	"fmt"
	"io"

	"rfabric/internal/compress"
	"rfabric/internal/engine"
	"rfabric/internal/geometry"
	"rfabric/internal/storage"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// CompressionPoint reports one codec over one column.
type CompressionPoint struct {
	Codec        string
	ColumnBytes  int
	EncodedBytes int
	Ratio        float64
	RandomAccess bool
}

// CompressionResult is the §III-D study: how each implemented encoding
// compresses representative lineitem columns and whether it can serve the
// fabric's scattered accesses.
type CompressionResult struct {
	Points []CompressionPoint
}

// AblationCompression encodes lineitem's shipdate column (sorted-ish dates:
// delta-friendly), shipmode column (low cardinality: dictionary/RLE
// friendly), and comment column (text: huffman/LZ friendly) with every
// codec that applies.
func AblationCompression(opt Options, rows int) (*CompressionResult, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	tbl, err := l.place("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed)
	if err != nil {
		return nil, err
	}
	sch := tbl.Schema()
	colBytes := func(col int) []byte {
		w := sch.Column(col).Width
		out := make([]byte, 0, rows*w)
		for r := 0; r < rows; r++ {
			p := tbl.RowPayload(r)
			out = append(out, p[sch.Offset(col):sch.Offset(col)+w]...)
		}
		return out
	}
	res := &CompressionResult{}
	add := func(codec string, raw, encoded int, random bool) {
		res.Points = append(res.Points, CompressionPoint{
			Codec:        codec,
			ColumnBytes:  raw,
			EncodedBytes: encoded,
			Ratio:        float64(raw) / float64(encoded),
			RandomAccess: random,
		})
	}

	// Dictionary over l_shipmode (7 distinct values).
	mode := colBytes(tpch.LShipMode)
	dict, err := compress.EncodeDict(mode, sch.Column(tpch.LShipMode).Width)
	if err != nil {
		return nil, err
	}
	add("dictionary(l_shipmode)", len(mode), dict.EncodedSize(), true)

	// Delta over l_orderkey (monotone-ish int64).
	keys := make([]int64, rows)
	for r := 0; r < rows; r++ {
		v, err := tbl.Get(r, tpch.LOrderKey)
		if err != nil {
			return nil, err
		}
		keys[r] = v.Int
	}
	delta := compress.EncodeDelta(keys)
	add("delta(l_orderkey)", rows*8, delta.EncodedSize(), true)

	// Huffman over l_comment text.
	comment := colBytes(tpch.LComment)
	huff, err := compress.EncodeHuffman(comment, 4096)
	if err != nil {
		return nil, err
	}
	add("huffman(l_comment)", len(comment), huff.EncodedSize(), true)

	// RLE over l_linestatus (long runs are rare in row order, so the ratio
	// is honest, not cherry-picked).
	status := colBytes(tpch.LLineStatus)
	rle, err := compress.EncodeRLE(status, 1)
	if err != nil {
		return nil, err
	}
	add("rle(l_linestatus)", len(status), rle.EncodedSize(), false)

	// LZ77 over l_comment.
	lz := compress.EncodeLZ77(comment)
	add("lz77(l_comment)", len(comment), len(lz), false)

	// The through-fabric payoff: project the two wide text columns of a
	// dictionary-encoded copy and compare shipped bytes against the raw
	// table — §III-D's claim that encodings "benefit any groups of columns
	// requested by ephemeral columns".
	sys := l.sys
	encoded, err := compress.EncodeTableDict(tbl, []int{tpch.LShipInstruct, tpch.LShipMode},
		sys.Arena.Alloc(int64(rows*sch.RowBytes())))
	if err != nil {
		return nil, err
	}
	ship := func(tbl *table.Table, cols ...int) (int, error) {
		geom, err := geometry.NewGeometry(tbl.Schema(), cols...)
		if err != nil {
			return 0, err
		}
		ev, err := sys.Fab.Configure(tbl, geom)
		if err != nil {
			return 0, err
		}
		before := sys.Fab.Stats().BytesShipped
		ev.Materialize()
		return int(sys.Fab.Stats().BytesShipped - before), nil
	}
	rawBytes, err := ship(tbl, tpch.LShipInstruct, tpch.LShipMode)
	if err != nil {
		return nil, err
	}
	encBytes, err := ship(encoded.Table, tpch.LShipInstruct, tpch.LShipMode)
	if err != nil {
		return nil, err
	}
	add("fabric-ship(raw strings)", rawBytes, rawBytes, true)
	add("fabric-ship(dict codes)", rawBytes, encBytes+encoded.DictionaryBytes(), true)

	return res, nil
}

// WriteTable renders the codec study.
func (r *CompressionResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Ablation ABL-COMPRESS — codecs over lineitem columns (§III-D)\n")
	fmt.Fprintf(w, "  %-24s %12s %12s %8s %s\n", "codec(column)", "raw", "encoded", "ratio", "fabric-compatible")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-24s %12d %12d %8.2f %v\n", p.Codec, p.ColumnBytes, p.EncodedBytes, p.Ratio, p.RandomAccess)
	}
}

// StoragePoint is one storage-tier configuration.
type StoragePoint struct {
	Setting     string
	Cycles      uint64
	BytesToHost uint64
}

// StorageResult is the §IV-D study: Relational Storage's near-storage
// projection+selection+decompression against the host-side baseline, on
// TPC-H Q6's access pattern.
type StorageResult struct {
	Points []StoragePoint
}

// AblationStorage runs Q6's geometry and predicates over a lineitem table
// stored on the flash model, raw and page-compressed, near-storage and on
// the host.
func AblationStorage(opt Options, rows int) (*StorageResult, error) {
	l, err := newLab(opt.System)
	if err != nil {
		return nil, err
	}
	tbl, err := l.place("lineitem", tpch.LineitemSchema(), rows, tpch.Generate, opt.Seed)
	if err != nil {
		return nil, err
	}
	root, err := l.lower(tpch.Q6SQL)
	if err != nil {
		return nil, err
	}
	q, _, err := engine.FromPlan(root)
	if err != nil {
		return nil, err
	}
	geom, err := geometry.NewGeometry(tbl.Schema(), root.Scan().Cols...)
	if err != nil {
		return nil, err
	}
	res := &StorageResult{}
	var reference []byte
	for _, compressed := range []bool{false, true} {
		dev, err := storage.NewDevice(storage.DefaultDeviceConfig())
		if err != nil {
			return nil, err
		}
		ps, err := storage.StoreTable(dev, tbl, compressed)
		if err != nil {
			return nil, err
		}
		near, err := ps.ScanNearStorage(geom, q.Selection)
		if err != nil {
			return nil, err
		}
		host, err := ps.ScanHost(geom, q.Selection)
		if err != nil {
			return nil, err
		}
		if string(near.Packed) != string(host.Packed) {
			return nil, fmt.Errorf("storage: near-storage and host scans disagree (compressed=%v)", compressed)
		}
		if reference == nil {
			reference = near.Packed
		} else if string(reference) != string(near.Packed) {
			return nil, fmt.Errorf("storage: compressed layout changed the result")
		}
		label := "raw"
		if compressed {
			label = "lz77-pages"
		}
		res.Points = append(res.Points,
			StoragePoint{Setting: label + "/near-storage", Cycles: near.Cycles, BytesToHost: near.BytesToHost},
			StoragePoint{Setting: label + "/host", Cycles: host.Cycles, BytesToHost: host.BytesToHost},
		)
	}
	return res, nil
}

// WriteTable renders the storage study.
func (r *StorageResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Ablation ABL-STORAGE — Relational Storage vs host-side scan (Q6 pattern, §IV-D)\n")
	fmt.Fprintf(w, "  %-24s %14s %14s\n", "setting", "cycles", "bytes-to-host")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-24s %14d %14d\n", p.Setting, p.Cycles, p.BytesToHost)
	}
}
