package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSON Lines artifacts — the campaign run log and the slow-query
// log — share one line writer and one line reader, so both files agree
// on framing, error handling and line numbering.

// jsonlWriter writes one JSON object per line. The first marshal or
// write error is sticky: later lines are dropped and err reports it, so
// logging never fails the work being logged. Callers serialize access.
type jsonlWriter struct {
	w   io.Writer
	err error
}

// write appends v as one line.
func (l *jsonlWriter) write(v any) {
	if l.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err == nil {
		_, err = l.w.Write(append(data, '\n'))
	}
	l.err = err
}

// readJSONL parses a JSON Lines stream into entries of type T, skipping
// blank lines and running check on each entry in file order. Errors
// name the artifact and the 1-based line: "<what> line N: ...".
func readJSONL[T any](r io.Reader, what string, check func(*T) error) ([]T, error) {
	var entries []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e T
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s line %d: invalid JSON: %w", what, line, err)
		}
		if err := check(&e); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", what, line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return entries, nil
}
