// Package promtext is a minimal parser for the Prometheus text exposition
// format — just enough to round-trip and validate what obs.Registry.WriteTo
// renders. It exists for tests (the /metrics output of internal/obs and
// internal/diag is parsed back and checked for well-formedness on every
// run) and deliberately implements only the classic text format: HELP/TYPE
// comment lines, samples with optionally labeled names, and the three
// escape sequences the format defines for label values (\\, \" and \n).
package promtext

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one metric sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family groups the samples sharing one base metric name with its HELP and
// TYPE metadata. Histogram families own their _bucket/_sum/_count samples.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Parse reads a complete text exposition. Every sample must be preceded by
// HELP and TYPE lines for its family (the stricter-than-spec discipline the
// obs renderer follows), sample lines must be well-formed, and families must
// not repeat. Histogram samples (name_bucket/_sum/_count) attach to the
// family of their base name.
func Parse(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	sc.Split(scanLF)
	var fams []Family
	index := make(map[string]int) // family name -> fams index
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMeta(line, lineNo, &fams, index); err != nil {
				return nil, err
			}
			continue
		}
		s, err := parseSample(line, lineNo)
		if err != nil {
			return nil, err
		}
		base := familyName(s.Name)
		i, ok := index[base]
		if !ok {
			return nil, fmt.Errorf("promtext: line %d: sample %q has no preceding HELP/TYPE for family %q", lineNo, s.Name, base)
		}
		if fams[i].Help == "" || fams[i].Type == "" {
			return nil, fmt.Errorf("promtext: line %d: family %q is missing %s", lineNo, base, missingMeta(fams[i]))
		}
		fams[i].Samples = append(fams[i].Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// scanLF splits lines at '\n' alone, as the text format does. Unlike
// bufio.ScanLines it keeps a trailing '\r', which is legal HELP text.
func scanLF(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func missingMeta(f Family) string {
	switch {
	case f.Help == "" && f.Type == "":
		return "HELP and TYPE"
	case f.Help == "":
		return "HELP"
	default:
		return "TYPE"
	}
}

// parseMeta handles "# HELP name text" and "# TYPE name type" lines; other
// comment lines are ignored.
func parseMeta(line string, lineNo int, fams *[]Family, index map[string]int) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // plain comment
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("promtext: line %d: invalid metric name %q in %s line", lineNo, name, fields[1])
	}
	i, ok := index[name]
	if !ok {
		index[name] = len(*fams)
		*fams = append(*fams, Family{Name: name})
		i = index[name]
	}
	f := &(*fams)[i]
	rest := ""
	if len(fields) == 4 {
		rest = fields[3]
	}
	switch fields[1] {
	case "HELP":
		if f.Help != "" {
			return fmt.Errorf("promtext: line %d: duplicate HELP for %q", lineNo, name)
		}
		if rest == "" {
			return fmt.Errorf("promtext: line %d: empty HELP text for %q", lineNo, name)
		}
		f.Help = rest
	case "TYPE":
		if f.Type != "" {
			return fmt.Errorf("promtext: line %d: duplicate TYPE for %q", lineNo, name)
		}
		switch rest {
		case "counter", "gauge", "histogram", "summary", "untyped":
			f.Type = rest
		default:
			return fmt.Errorf("promtext: line %d: unknown TYPE %q for %q", lineNo, rest, name)
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("promtext: line %d: TYPE for %q after its samples", lineNo, name)
		}
	}
	return nil
}

// parseSample parses one "name{labels} value" line.
func parseSample(line string, lineNo int) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("promtext: line %d: invalid sample name %q", lineNo, s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest, lineNo)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("promtext: line %d: malformed sample %q", lineNo, line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("promtext: line %d: bad value %q: %v", lineNo, fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {name="value",...} block starting at rest[0] == '{'
// and returns the index one past the closing brace.
func parseLabels(rest string, lineNo int) (int, map[string]string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		if i >= len(rest) {
			return 0, nil, fmt.Errorf("promtext: line %d: unterminated label block", lineNo)
		}
		if rest[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(rest) && isLabelChar(rest[i], i == start) {
			i++
		}
		name := rest[start:i]
		if name == "" || i >= len(rest) || rest[i] != '=' {
			return 0, nil, fmt.Errorf("promtext: line %d: malformed label name near %q", lineNo, rest[start:])
		}
		i++ // '='
		if i >= len(rest) || rest[i] != '"' {
			return 0, nil, fmt.Errorf("promtext: line %d: label %q value is not quoted", lineNo, name)
		}
		value, n, err := parseQuoted(rest[i:], lineNo)
		if err != nil {
			return 0, nil, err
		}
		i += n
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("promtext: line %d: duplicate label %q", lineNo, name)
		}
		labels[name] = value
		if i < len(rest) && rest[i] == ',' {
			i++
		}
	}
}

// parseQuoted decodes a double-quoted label value honoring exactly the
// three escapes the text format defines (\\, \" and \n); any other escape
// sequence is an error. It returns the decoded value and the number of
// input bytes consumed including both quotes.
func parseQuoted(q string, lineNo int) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(q); i++ {
		switch q[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(q) {
				break
			}
			switch q[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("promtext: line %d: invalid escape \\%c in label value", lineNo, q[i])
			}
		case '\n':
			return "", 0, fmt.Errorf("promtext: line %d: raw newline in label value", lineNo)
		default:
			b.WriteByte(q[i])
		}
	}
	return "", 0, fmt.Errorf("promtext: line %d: unterminated label value", lineNo)
}

// parseValue parses a sample value, accepting +Inf/-Inf/NaN spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// familyName maps a sample name to its family: histogram/summary series
// (_bucket, _sum, _count) belong to the base name.
func familyName(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

// ValidateHistogram checks one histogram family: every series is a
// _bucket/_sum/_count of the family name, buckets carry an le label, the
// cumulative counts are non-decreasing in le order, the last bucket is
// +Inf, and its count equals the _count sample.
func ValidateHistogram(f Family) error {
	if f.Type != "histogram" {
		return fmt.Errorf("promtext: family %q is %q, not histogram", f.Name, f.Type)
	}
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	var sum, count *float64
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("promtext: %s_bucket sample without le label", f.Name)
			}
			v, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("promtext: %s_bucket has bad le %q", f.Name, le)
			}
			buckets = append(buckets, bucket{le: v, count: s.Value})
		case f.Name + "_sum":
			v := s.Value
			sum = &v
		case f.Name + "_count":
			v := s.Value
			count = &v
		default:
			return fmt.Errorf("promtext: unexpected series %q in histogram %q", s.Name, f.Name)
		}
	}
	if len(buckets) == 0 {
		return fmt.Errorf("promtext: histogram %q has no buckets", f.Name)
	}
	if sum == nil || count == nil {
		return fmt.Errorf("promtext: histogram %q is missing _sum or _count", f.Name)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			return fmt.Errorf("promtext: histogram %q buckets not cumulative at le=%g (%g < %g)",
				f.Name, buckets[i].le, buckets[i].count, buckets[i-1].count)
		}
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(last.le, 1) {
		return fmt.Errorf("promtext: histogram %q does not end in a +Inf bucket", f.Name)
	}
	if last.count != *count {
		return fmt.Errorf("promtext: histogram %q +Inf bucket %g != count %g", f.Name, last.count, *count)
	}
	return nil
}

// Validate checks the whole exposition: every family has HELP and TYPE, and
// every histogram family passes ValidateHistogram. Families with zero
// samples are legal (a label-indexed counter before its first increment
// renders as bare metadata). Parse already guarantees sample-line
// well-formedness.
func Validate(fams []Family) error {
	for _, f := range fams {
		if f.Help == "" || f.Type == "" {
			return fmt.Errorf("promtext: family %q is missing %s", f.Name, missingMeta(f))
		}
		if f.Type == "histogram" && len(f.Samples) > 0 {
			if err := ValidateHistogram(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func isLabelChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
