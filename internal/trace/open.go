package trace

import (
	"bufio"
	"fmt"
	"io"
)

// RecordReader is the decode side shared by both trace codecs: the text
// Reader and the columnar ColReader. Analyzers consume this interface
// so a stored trace's encoding is an implementation detail.
type RecordReader interface {
	// Header parses (if needed) and returns the trace header.
	Header() (Header, error)
	// Next returns the next record, or io.EOF after the last one.
	//
	// The record's Deltas (and, for the columnar reader, any of its
	// slices) may view storage the reader reuses: they are valid only
	// until the next call. Clone a record to keep it. This is the
	// Observer contract, so a record can go straight from Next to an
	// Observer, as Copy does, and decoding allocates per trace or per
	// block rather than per record.
	Next() (Record, error)
}

// StreamWriter is the encode side shared by both codecs: an Observer
// whose batched records can be forced downstream.
type StreamWriter interface {
	Observer
	Flush() error
}

// Trace format names, as accepted by the CLIs' -trace-format flag.
const (
	FormatAuto = "auto" // readers: sniff the magic bytes
	FormatText = "text" // the line-oriented debuggable interchange
	FormatCol  = "col"  // the columnar binary format
)

// OpenReader wraps r in the reader for the requested format and reports
// which format was chosen. Format FormatAuto (or "") sniffs the magic
// bytes: columnar traces start with "PNUTCOL1", text traces with
// "pnut-trace". Forcing FormatText or FormatCol skips the sniff, so a
// mismatched input fails with that codec's own magic error.
func OpenReader(r io.Reader, format string) (RecordReader, string, error) {
	switch format {
	case FormatText:
		return NewReader(r), FormatText, nil
	case FormatCol:
		return NewColReader(r), FormatCol, nil
	case FormatAuto, "":
	default:
		return nil, "", fmt.Errorf("trace: unknown format %q (want %s, %s or %s)", format, FormatAuto, FormatText, FormatCol)
	}
	br := bufio.NewReaderSize(r, 64*1024)
	magic, err := br.Peek(len(colMagic))
	if err != nil && err != io.EOF {
		return nil, "", fmt.Errorf("trace: sniffing format: %w", err)
	}
	if string(magic) == colMagic {
		return NewColReader(br), FormatCol, nil
	}
	return NewReader(br), FormatText, nil
}

// NewFormatWriter returns the writer for the requested format
// (FormatText or FormatCol), with the same flushEvery semantics both
// codecs share.
func NewFormatWriter(w io.Writer, h Header, format string, flushEvery bool) (StreamWriter, error) {
	switch format {
	case FormatText, "":
		return NewWriter(w, h, flushEvery), nil
	case FormatCol:
		return NewColWriter(w, h, flushEvery), nil
	}
	return nil, fmt.Errorf("trace: unknown format %q (want %s or %s)", format, FormatText, FormatCol)
}
