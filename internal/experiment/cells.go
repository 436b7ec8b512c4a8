// The cell-record stream is the interchange format of the distributed
// sweep: a self-describing, versioned JSONL stream — one meta line, then
// one line per (point, replication) cell — that a worker process writes
// on stdout and the coordinator journals and reassembles. JSON keeps the
// compose-small-tools-over-streams property of the suite's textual
// trace format (greppable, ssh-able, diffable), and Go's shortest
// round-trip float encoding makes the stream exact: decoding restores
// every statistic bit for bit (see stats.Snapshot).
package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
)

// CellFormat and CellVersion identify the cell-record stream format.
// Readers reject other formats and newer versions. Version 2 added the
// meta's adaptive stopping-rule fields; version 3 added the engine tag
// and state-space pins for the exhaustive backends. Cell lines are
// unchanged (cells are self-identifying, so the format tolerates a
// dynamically growing grid), and v1/v2 streams still decode — an
// absent engine means "sim".
const (
	CellFormat  = "pnut-cells"
	CellVersion = 3
)

// CellMeta is the stream's first line: it pins the grid the records
// belong to, so a coordinator can reject records from a different sweep
// (and a resumed journal from changed options).
type CellMeta struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Net names the swept model (informational).
	Net string `json:"net,omitempty"`
	// Axes, Reps and BaseSeed pin the grid shape and seed schedule;
	// Horizon and MaxStarts pin the per-cell simulation length. For an
	// adaptive sweep Reps is the per-point capacity (Adaptive.MaxReps),
	// i.e. the grid's rep stride.
	Axes      []Axis `json:"axes"`
	Reps      int    `json:"reps"`
	BaseSeed  int64  `json:"baseSeed"`
	Horizon   int64  `json:"horizon"`
	MaxStarts int64  `json:"maxStarts,omitempty"`
	// Metrics names the per-cell metric values, in order.
	Metrics []string `json:"metrics"`
	// Cells is the grid's total cell capacity (points x rep stride). An
	// adaptive run completes with fewer records than Cells.
	Cells int `json:"cells"`
	// Adaptive pins the CI-targeted stopping rule of an adaptive sweep
	// (cell-record v2); nil for fixed-replication sweeps. Resuming a
	// journal under a changed stopping rule would silently reshape the
	// grid, so it is part of the grid identity.
	Adaptive *AdaptiveOptions `json:"adaptive,omitempty"`
	// Engine names the backend that computed the cells (cell-record
	// v3); empty means "sim". Cells from different engines are never
	// interchangeable, so it is part of the grid identity — which also
	// keys the server's content-addressed cache per engine.
	Engine string `json:"engine,omitempty"`
	// MaxStates and BoundCap pin the state-space controls of the
	// exhaustive engines (zero for sim): a reach cell's values depend
	// on where exploration truncates.
	MaxStates int `json:"maxStates,omitempty"`
	BoundCap  int `json:"boundCap,omitempty"`
}

// MetaOf derives the stream meta for a sweep. netName may be empty.
func MetaOf(opt SweepOptions, netName string) CellMeta {
	m := CellMeta{
		Format:    CellFormat,
		Version:   CellVersion,
		Net:       netName,
		Axes:      opt.Axes,
		Reps:      opt.RepStride(),
		BaseSeed:  opt.BaseSeed,
		Horizon:   opt.Sim.Horizon,
		MaxStarts: opt.Sim.MaxStarts,
		Cells:     opt.NumCells(),
		Adaptive:  opt.Adaptive,
		Metrics:   make([]string, len(opt.Metrics)),
	}
	for i := range opt.Metrics {
		m.Metrics[i] = opt.Metrics[i].Name
	}
	if b := opt.backend(); b.Engine() != "sim" {
		m.Engine = b.Engine()
		if sp, ok := b.(interface{ StatePins() (int, int) }); ok {
			m.MaxStates, m.BoundCap = sp.StatePins()
		}
	}
	return m
}

// Check validates the meta's format tag and version.
func (m *CellMeta) Check() error {
	if m.Format != CellFormat {
		return fmt.Errorf("experiment: stream format %q is not %q", m.Format, CellFormat)
	}
	if m.Version < 1 || m.Version > CellVersion {
		return fmt.Errorf("experiment: cell stream version %d not supported (have %d)", m.Version, CellVersion)
	}
	return nil
}

// Grid returns the meta's grid identity: the meta with its
// informational fields (format tag, version, net name) blanked and the
// default engine spelled "", so pre-v3 streams compare equal to v3
// ones. The JSON encoding of the identity is what SameGrid compares and
// what the server's result cache hashes, so a field added to CellMeta
// takes part in both with no further code.
func (m CellMeta) Grid() CellMeta {
	m.Format, m.Net, m.Version = "", "", 0
	if m.Engine == "sim" {
		m.Engine = ""
	}
	return m
}

// SameGrid reports whether two metas describe the same sweep: whether
// their Grid identities encode to the same JSON. A meta that does not
// encode (a non-finite axis value or stopping target) matches nothing.
func (m *CellMeta) SameGrid(o *CellMeta) bool {
	a, err := json.Marshal(m.Grid())
	if err != nil {
		return false
	}
	b, err := json.Marshal(o.Grid())
	return err == nil && bytes.Equal(a, b)
}

// cellJSON is the wire form of one CellRecord line.
type cellJSON struct {
	Cell   int            `json:"cell"`
	Point  int            `json:"point"`
	Rep    int            `json:"rep"`
	Seed   int64          `json:"seed"`
	Values []float64      `json:"values"`
	Stats  stats.Snapshot `json:"stats"`
	Run    sim.Result     `json:"run"`
}

// EncodeCell renders one record as a single JSON line (no trailing
// newline).
func EncodeCell(rec CellRecord) ([]byte, error) {
	if rec.Stats == nil {
		return nil, fmt.Errorf("experiment: cell %d has no statistics to encode", rec.Cell)
	}
	return json.Marshal(cellJSON{
		Cell: rec.Cell, Point: rec.Point, Rep: rec.Rep, Seed: rec.Seed,
		Values: rec.Values,
		Stats:  rec.Stats.Snapshot(),
		Run:    rec.Run,
	})
}

// DecodeCell parses one JSON cell line back into a record, restoring
// the statistics accumulator exactly.
func DecodeCell(line []byte) (CellRecord, error) {
	var cj cellJSON
	if err := json.Unmarshal(line, &cj); err != nil {
		return CellRecord{}, fmt.Errorf("experiment: bad cell record: %w", err)
	}
	st, err := stats.FromSnapshot(cj.Stats)
	if err != nil {
		return CellRecord{}, fmt.Errorf("experiment: cell %d: %w", cj.Cell, err)
	}
	return CellRecord{
		Cell: cj.Cell, Point: cj.Point, Rep: cj.Rep, Seed: cj.Seed,
		Values: cj.Values,
		Stats:  st,
		Run:    cj.Run,
	}, nil
}

// CellWriter streams a meta line then cell records to w as JSONL.
type CellWriter struct {
	w *bufio.Writer
}

// NewCellWriter writes the meta line (normalizing Format/Version) and
// returns a writer for the records.
func NewCellWriter(w io.Writer, meta CellMeta) (*CellWriter, error) {
	meta.Format, meta.Version = CellFormat, CellVersion
	bw := bufio.NewWriter(w)
	line, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	if _, err := bw.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	return &CellWriter{w: bw}, nil
}

// Write appends one record line. The line is flushed immediately: a
// coordinator tailing the stream sees each cell as it completes, and a
// killed worker leaves only whole lines (plus at most one truncated
// tail) behind.
func (cw *CellWriter) Write(rec CellRecord) error {
	line, err := EncodeCell(rec)
	if err != nil {
		return err
	}
	if _, err := cw.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return cw.w.Flush()
}

// Flush flushes buffered output.
func (cw *CellWriter) Flush() error { return cw.w.Flush() }

// maxCellLine bounds one JSONL line (a cell's full statistics snapshot);
// 64 MiB is far above any real net.
const maxCellLine = 64 << 20

// CellReader decodes a cell-record stream: the meta line, then one
// record per Read.
type CellReader struct {
	sc   *bufio.Scanner
	meta CellMeta
}

// NewCellReader reads and validates the stream's meta line.
func NewCellReader(r io.Reader) (*CellReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxCellLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("experiment: empty cell stream (no meta line)")
	}
	var meta CellMeta
	if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &meta); err != nil {
		return nil, fmt.Errorf("experiment: bad cell stream meta: %w", err)
	}
	if err := meta.Check(); err != nil {
		return nil, err
	}
	return &CellReader{sc: sc, meta: meta}, nil
}

// Meta returns the stream's meta line.
func (cr *CellReader) Meta() CellMeta { return cr.meta }

// Read returns the next record, or io.EOF at end of stream. Blank
// lines are skipped.
func (cr *CellReader) Read() (CellRecord, error) {
	for cr.sc.Scan() {
		line := bytes.TrimSpace(cr.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		return DecodeCell(line)
	}
	if err := cr.sc.Err(); err != nil {
		return CellRecord{}, err
	}
	return CellRecord{}, io.EOF
}
