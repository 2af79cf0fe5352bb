package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), the one metrics
// format every /metrics endpoint serves, so a stock Prometheus scrape
// (and the promtext lint in CI) can consume it: `# HELP`/`# TYPE` per
// family, escaped label values, and summary quantiles.

// promEscape escapes a label value per the exposition format:
// backslash, double quote and newline.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promName sanitizes a metric name to the exposition format's
// [a-zA-Z_:][a-zA-Z0-9_:]* alphabet.
func promName(s string) string {
	if s == "" {
		return "_"
	}
	valid := func(i int, r rune) bool {
		if r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			return true
		}
		return i > 0 && r >= '0' && r <= '9'
	}
	ok := true
	for i, r := range s {
		if !valid(i, r) {
			ok = false
			break
		}
	}
	if ok {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		if valid(i, r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// appendPromHeader appends a family's `# HELP` and `# TYPE` lines.
func appendPromHeader(b []byte, name, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

// AppendPromGauge appends one complete single-sample gauge family
// (HELP + TYPE + value), for callers exposing point-in-time values
// (inflight queries, capture backlog) alongside a registry exposition.
func AppendPromGauge(b []byte, name, help string, v int64) []byte {
	pn := promName(name)
	b = appendPromHeader(b, pn, help, "gauge")
	b = append(b, fmt.Sprintf("%s %d\n", pn, v)...)
	return b
}

// WritePrometheus writes the deterministic-domain registry in
// Prometheus text exposition format, one counter family per metric in
// sorted name order, so the exposition is deterministic like the
// registry it describes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var b []byte
	for _, name := range sortedKeys(r.counters) {
		pn := promName(name)
		b = appendPromHeader(b, pn, "Deterministic-domain counter "+name+".", "counter")
		b = append(b, fmt.Sprintf("%s %d\n", pn, r.counters[name].Value())...)
	}
	r.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// WritePrometheus writes the wall-clock-domain registry in Prometheus
// text exposition format: event counters as `wall_<name>_total`
// counters, timers as `wall_<name>_count` + `wall_<name>_total_ns`
// counter pairs. The `wall_` prefix marks the domain.
func (r *WallRegistry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	countNames := sortedKeys(r.counts)
	timerNames := sortedKeys(r.totals)
	var b []byte
	for _, name := range countNames {
		pn := promName("wall_" + name + "_total")
		b = appendPromHeader(b, pn, "Wall-clock-domain event counter "+name+".", "counter")
		b = append(b, fmt.Sprintf("%s %d\n", pn, r.counts[name])...)
	}
	for _, name := range timerNames {
		cn := promName("wall_" + name + "_count")
		b = appendPromHeader(b, cn, "Wall-clock-domain timer "+name+": observations.", "counter")
		b = append(b, fmt.Sprintf("%s %d\n", cn, r.spent[name])...)
		tn := promName("wall_" + name + "_total_ns")
		b = appendPromHeader(b, tn, "Wall-clock-domain timer "+name+": total nanoseconds.", "counter")
		b = append(b, fmt.Sprintf("%s %d\n", tn, wallInt(r.totals[name]))...)
	}
	r.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// sortedKeys returns m's keys sorted; the iteration-order laundering
// keeps the expositions deterministic (maporder-clean).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- exposition lint ----

// promFamily tracks one metric family while linting.
type promFamily struct {
	typ        string
	seenSample bool
	hasInf     bool
	sawBucket  bool
}

var promKnownTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// ValidatePrometheusText lints a text exposition as a Prometheus
// scraper would parse it: metric and label names match the format's
// alphabet, label values use only valid escapes, every `# TYPE`
// precedes its family's samples and names a known type, sample values
// parse as floats, summary `quantile` labels lie in [0,1], and every
// histogram family's `le` buckets include `+Inf`. This is the lint CI
// holds /metrics to (satellite: exposition-format fix).
func ValidatePrometheusText(data []byte) error {
	families := map[string]*promFamily{}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) < 4 {
					return promErr(lineNo, "malformed # TYPE line")
				}
				name, typ := fields[2], strings.TrimSpace(fields[3])
				if !promValidName(name) {
					return promErr(lineNo, "invalid metric name %q in # TYPE", name)
				}
				if !promKnownTypes[typ] {
					return promErr(lineNo, "unknown metric type %q", typ)
				}
				fam := families[name]
				if fam == nil {
					fam = &promFamily{}
					families[name] = fam
				}
				if fam.seenSample {
					return promErr(lineNo, "# TYPE for %s after its samples", name)
				}
				fam.typ = typ
			case "HELP":
				if len(fields) < 3 || !promValidName(fields[2]) {
					return promErr(lineNo, "malformed # HELP line")
				}
			}
			continue
		}
		name, labels, value, err := promParseSample(line)
		if err != nil {
			return promErr(lineNo, "%v", err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return promErr(lineNo, "sample value %q is not a float", value)
		}
		fam := promFamilyFor(families, name)
		fam.seenSample = true
		if fam.typ == "summary" && !strings.HasSuffix(name, "_sum") && !strings.HasSuffix(name, "_count") {
			q, ok := labels["quantile"]
			if !ok {
				return promErr(lineNo, "summary sample %s missing quantile label", name)
			}
			qv, err := strconv.ParseFloat(q, 64)
			if err != nil || math.IsNaN(qv) || qv < 0 || qv > 1 {
				return promErr(lineNo, "summary quantile %q outside [0,1]", q)
			}
		}
		if fam.typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			fam.sawBucket = true
			le, ok := labels["le"]
			if !ok {
				return promErr(lineNo, "histogram bucket %s missing le label", name)
			}
			if le == "+Inf" {
				fam.hasInf = true
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				return promErr(lineNo, "histogram le %q is not a float", le)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("promtext: %w", err)
	}
	for _, name := range sortedKeys(families) {
		fam := families[name]
		if fam.typ == "histogram" && fam.sawBucket && !fam.hasInf {
			return fmt.Errorf("promtext: histogram %s has buckets but no le=\"+Inf\"", name)
		}
	}
	return nil
}

// promFamilyFor resolves a sample name to its family, stripping the
// typed-family suffixes (_bucket/_sum/_count/_total_ns) so histogram
// and summary children attach to their parent's declared type.
func promFamilyFor(families map[string]*promFamily, name string) *promFamily {
	if fam := families[name]; fam != nil {
		return fam
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if fam := families[base]; fam != nil {
				// Key histogram children under the parent so the
				// le=+Inf check sees every bucket line.
				if fam.typ == "histogram" || fam.typ == "summary" {
					return fam
				}
			}
		}
	}
	fam := &promFamily{typ: "untyped"}
	families[name] = fam
	return fam
}

func promErr(line int, format string, args ...any) error {
	return fmt.Errorf("promtext: line %d: %s", line, fmt.Sprintf(format, args...))
}

// promValidName reports whether s is a valid metric name.
func promValidName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// promValidLabel reports whether s is a valid label name.
func promValidLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// promParseSample parses one sample line: name{labels} value [ts].
func promParseSample(line string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		rest = rest[brace+1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if len(rest) == 0 {
				return "", nil, "", fmt.Errorf("unterminated label set")
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, "", fmt.Errorf("label without '='")
			}
			lname := strings.TrimSpace(rest[:eq])
			if !promValidLabel(lname) {
				return "", nil, "", fmt.Errorf("invalid label name %q", lname)
			}
			rest = strings.TrimLeft(rest[eq+1:], " \t")
			if len(rest) == 0 || rest[0] != '"' {
				return "", nil, "", fmt.Errorf("label %s value is not quoted", lname)
			}
			rest = rest[1:]
			var b strings.Builder
			i := 0
			for {
				if i >= len(rest) {
					return "", nil, "", fmt.Errorf("unterminated label value for %s", lname)
				}
				c := rest[i]
				if c == '"' {
					break
				}
				if c == '\\' {
					if i+1 >= len(rest) {
						return "", nil, "", fmt.Errorf("dangling escape in label %s", lname)
					}
					switch rest[i+1] {
					case '\\':
						b.WriteByte('\\')
					case '"':
						b.WriteByte('"')
					case 'n':
						b.WriteByte('\n')
					default:
						return "", nil, "", fmt.Errorf("invalid escape \\%c in label %s", rest[i+1], lname)
					}
					i += 2
					continue
				}
				b.WriteByte(c)
				i++
			}
			labels[lname] = b.String()
			rest = strings.TrimLeft(rest[i+1:], " \t")
			if len(rest) > 0 && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample line has no value")
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !promValidName(name) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", nil, "", fmt.Errorf("sample %s has no value", name)
	}
	if len(fields) > 2 {
		return "", nil, "", fmt.Errorf("sample %s has trailing garbage", name)
	}
	return name, labels, fields[0], nil
}
