package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rfabric/internal/compress"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// PageStore lays a row table out on a Device: rows are packed back to back
// into pages (no row spans a page), optionally LZ77-compressed per page.
// Compressed pages exercise §IV-D's "even decompression can be done
// on-the-fly along with data transformation".
type PageStore struct {
	dev        *Device
	schema     *geometry.Schema
	rowBytes   int
	rowsPer    int
	rows       int
	pageNos    []int
	compressed bool
	// rawLens[i] is the pre-compression payload length of page i
	// (compressed layout only).
	rawLens []int
}

// StoreTable writes tbl onto dev, compressing each page when compress is
// set. Only non-MVCC tables are supported at the storage tier.
func StoreTable(dev *Device, tbl *table.Table, compressPages bool) (*PageStore, error) {
	if dev == nil || tbl == nil {
		return nil, errors.New("storage: nil device or table")
	}
	if tbl.HasMVCC() {
		return nil, errors.New("storage: MVCC tables are a memory-tier feature")
	}
	ps := &PageStore{
		dev:        dev,
		schema:     tbl.Schema(),
		rowBytes:   tbl.Schema().RowBytes(),
		rows:       tbl.NumRows(),
		compressed: compressPages,
	}
	ps.rowsPer = dev.Config().PageBytes / ps.rowBytes
	if ps.rowsPer < 1 {
		return nil, fmt.Errorf("storage: row of %d bytes exceeds page of %d", ps.rowBytes, dev.Config().PageBytes)
	}
	for start := 0; start < ps.rows; start += ps.rowsPer {
		end := start + ps.rowsPer
		if end > ps.rows {
			end = ps.rows
		}
		payload := make([]byte, 0, (end-start)*ps.rowBytes)
		for r := start; r < end; r++ {
			payload = append(payload, tbl.RowPayload(r)...)
		}
		rawLen := len(payload)
		if compressPages {
			enc := compress.EncodeLZ77(payload)
			if len(enc)+4 < rawLen {
				// Store with a 4-byte compressed-length header.
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], uint32(len(enc)))
				payload = append(hdr[:], enc...)
			} else {
				// Incompressible page: store raw, marked by length 0.
				var hdr [4]byte
				payload = append(hdr[:], payload...)
			}
			if len(payload) > dev.Config().PageBytes {
				return nil, fmt.Errorf("storage: compressed page grew past PageBytes")
			}
		}
		pn, err := dev.WritePage(payload)
		if err != nil {
			return nil, err
		}
		ps.pageNos = append(ps.pageNos, pn)
		ps.rawLens = append(ps.rawLens, rawLen)
	}
	return ps, nil
}

// Schema returns the stored schema.
func (ps *PageStore) Schema() *geometry.Schema { return ps.schema }

// NumRows returns the stored row count.
func (ps *PageStore) NumRows() int { return ps.rows }

// NumPages returns how many pages the table occupies.
func (ps *PageStore) NumPages() int { return len(ps.pageNos) }

// ScanResult is the outcome of a storage-tier column-group scan.
type ScanResult struct {
	// Packed holds the qualifying rows' selected columns back to back, in
	// geometry pack order — the same wire format the memory-tier fabric
	// ships.
	Packed []byte
	// Rows is the number of packed rows.
	Rows int
	// Cycles is the modeled end-to-end time: flash critical path, then the
	// larger of controller work and host-link transfer (they pipeline),
	// plus any host-side software work.
	Cycles uint64
	// BytesToHost is the interconnect traffic the scan caused.
	BytesToHost uint64
}

// pagePayload returns the decompressed payload of table page i along with
// the stored (possibly compressed) length.
func (ps *PageStore) pagePayload(i int) (payload []byte, storedLen int, err error) {
	raw, err := ps.dev.Page(ps.pageNos[i])
	if err != nil {
		return nil, 0, err
	}
	if !ps.compressed {
		return raw[:ps.rawLens[i]], ps.rawLens[i], nil
	}
	encLen := int(binary.LittleEndian.Uint32(raw[:4]))
	if encLen == 0 {
		return raw[4 : 4+ps.rawLens[i]], ps.rawLens[i] + 4, nil
	}
	payload, err = compress.DecodeLZ77(raw[4 : 4+encLen])
	if err != nil {
		return nil, 0, err
	}
	if len(payload) != ps.rawLens[i] {
		return nil, 0, fmt.Errorf("storage: page %d decompressed to %d bytes, want %d", i, len(payload), ps.rawLens[i])
	}
	return payload, encLen + 4, nil
}

// ScanNearStorage runs the Relational Storage path: the controller reads
// the pages, decompresses them in place, evaluates the predicates, and
// ships only the selected columns of qualifying rows.
func (ps *PageStore) ScanNearStorage(geom *geometry.Geometry, preds expr.Conjunction) (*ScanResult, error) {
	if err := ps.checkArgs(geom, preds); err != nil {
		return nil, err
	}
	dev := ps.dev
	flashCycles, err := dev.readPages(ps.pageNos)
	if err != nil {
		return nil, err
	}

	var packed []byte
	rows := 0
	var controlBytes int
	for i := range ps.pageNos {
		payload, _, err := ps.pagePayload(i)
		if err != nil {
			return nil, err
		}
		// The controller touches every decompressed byte once.
		controlBytes += len(payload)
		for off := 0; off+ps.rowBytes <= len(payload); off += ps.rowBytes {
			row := payload[off : off+ps.rowBytes]
			if !rowQualifies(ps.schema, row, preds) {
				continue
			}
			for _, c := range geom.Columns() {
				o := ps.schema.Offset(c)
				packed = append(packed, row[o:o+ps.schema.Column(c).Width]...)
			}
			rows++
		}
	}
	controlCycles := dev.control(controlBytes)
	transferCycles := dev.transfer(len(packed))

	// Controller processing pipelines with the host transfer.
	pipe := controlCycles
	if transferCycles > pipe {
		pipe = transferCycles
	}
	return &ScanResult{
		Packed:      packed,
		Rows:        rows,
		Cycles:      flashCycles + pipe,
		BytesToHost: uint64(len(packed)),
	}, nil
}

// ScanHost runs the baseline: every (possibly compressed) page crosses the
// interconnect and the host CPU decompresses, filters, and projects.
func (ps *PageStore) ScanHost(geom *geometry.Geometry, preds expr.Conjunction) (*ScanResult, error) {
	if err := ps.checkArgs(geom, preds); err != nil {
		return nil, err
	}
	dev := ps.dev
	flashCycles, err := dev.readPages(ps.pageNos)
	if err != nil {
		return nil, err
	}

	var packed []byte
	rows := 0
	var wireBytes, hostBytes int
	for i := range ps.pageNos {
		payload, storedLen, err := ps.pagePayload(i)
		if err != nil {
			return nil, err
		}
		wireBytes += storedLen
		// The host touches every byte it received, plus every decompressed
		// byte when pages are compressed.
		hostBytes += storedLen
		if ps.compressed {
			hostBytes += len(payload)
		}
		for off := 0; off+ps.rowBytes <= len(payload); off += ps.rowBytes {
			row := payload[off : off+ps.rowBytes]
			if !rowQualifies(ps.schema, row, preds) {
				continue
			}
			for _, c := range geom.Columns() {
				o := ps.schema.Offset(c)
				packed = append(packed, row[o:o+ps.schema.Column(c).Width]...)
			}
			rows++
		}
	}
	transferCycles := dev.transfer(wireBytes)
	hostCycles := uint64(float64(hostBytes) * dev.Config().HostCyclesPerByte)
	return &ScanResult{
		Packed:      packed,
		Rows:        rows,
		Cycles:      flashCycles + transferCycles + hostCycles,
		BytesToHost: uint64(wireBytes),
	}, nil
}

// AggregateResult is the outcome of an in-storage aggregation.
type AggregateResult struct {
	// Values holds one result per spec, finalized like every other fold
	// (vec.AggState.Result): COUNT is BIGINT, the rest DOUBLE.
	Values        []table.Value
	RowsQualified int
	// Cycles is flash critical path plus controller processing; only the
	// aggregate values cross the interconnect.
	Cycles      uint64
	BytesToHost uint64
}

// AggregateNearStorage pushes plain-column aggregates into the controller
// (§IV-D: "it is possible to push other operators like selection and
// aggregation by utilizing the processing capabilities of in-storage custom
// logic"). Pages never leave the device; the host receives the results.
func (ps *PageStore) AggregateNearStorage(geom *geometry.Geometry, preds expr.Conjunction, specs []expr.AggSpec) (*AggregateResult, error) {
	if err := ps.checkArgs(geom, preds); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("storage: no aggregate specs")
	}
	for _, sp := range specs {
		if err := sp.Validate(ps.schema); err != nil {
			return nil, err
		}
		if sp.Kind != expr.Count && !geom.Contains(sp.Col) {
			return nil, fmt.Errorf("storage: aggregate over column %q outside the configured geometry",
				ps.schema.Column(sp.Col).Name)
		}
	}
	states := make([]vec.AggState, len(specs))

	dev := ps.dev
	flashCycles, err := dev.readPages(ps.pageNos)
	if err != nil {
		return nil, err
	}
	qualified := 0
	var controlBytes int
	for i := range ps.pageNos {
		payload, _, err := ps.pagePayload(i)
		if err != nil {
			return nil, err
		}
		controlBytes += len(payload)
		for off := 0; off+ps.rowBytes <= len(payload); off += ps.rowBytes {
			row := payload[off : off+ps.rowBytes]
			if !rowQualifies(ps.schema, row, preds) {
				continue
			}
			qualified++
			for j, sp := range specs {
				if sp.Kind == expr.Count {
					states[j].AddCount(1)
					continue
				}
				v := table.DecodeColumn(ps.schema.Column(sp.Col), row[ps.schema.Offset(sp.Col):])
				if v.Type == geometry.Float64 {
					states[j].Add(v.Float)
				} else {
					states[j].Add(float64(v.Int))
				}
			}
		}
	}
	controlCycles := dev.control(controlBytes)
	transferCycles := dev.transfer(len(specs) * 8)

	out := &AggregateResult{
		Values:        make([]table.Value, len(specs)),
		RowsQualified: qualified,
		Cycles:        flashCycles + controlCycles + transferCycles,
		BytesToHost:   uint64(len(specs) * 8),
	}
	for i, st := range states {
		out.Values[i] = st.Result(specs[i].Kind)
	}
	return out, nil
}

func (ps *PageStore) checkArgs(geom *geometry.Geometry, preds expr.Conjunction) error {
	if geom == nil {
		return errors.New("storage: nil geometry")
	}
	if geom.Schema() != ps.schema {
		return errors.New("storage: geometry schema does not match stored table")
	}
	return preds.Validate(ps.schema)
}

func rowQualifies(sch *geometry.Schema, row []byte, preds expr.Conjunction) bool {
	for _, p := range preds {
		v := table.DecodeColumn(sch.Column(p.Col), row[sch.Offset(p.Col):])
		if !p.Eval(v) {
			return false
		}
	}
	return true
}
