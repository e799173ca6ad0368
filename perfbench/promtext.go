package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cryptomining/internal/obs"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// exposition is a parsed scrape. The benchmark reads the registry through
// the same text rendering GET /metrics serves, so the two cannot disagree.
type exposition []promSample

// scrape renders reg exactly as /metrics does and parses the result.
func scrape(reg *obs.Registry) (exposition, error) {
	var b strings.Builder
	reg.WritePrometheus(&b)
	return parseExposition(b.String())
}

func parseExposition(text string) (exposition, error) {
	var out exposition
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSampleLine(line string) (promSample, error) {
	s := promSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return s, fmt.Errorf("exposition: unbalanced labels in %q", line)
		}
		s.Name = line[:i]
		if err := parseLabels(line[i+1:j], s.Labels); err != nil {
			return s, fmt.Errorf("exposition: %q: %w", line, err)
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		f := strings.Fields(line)
		if len(f) < 2 {
			return s, fmt.Errorf("exposition: malformed line %q", line)
		}
		s.Name, rest = f[0], f[1]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return s, fmt.Errorf("exposition: no value in %q", line)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return s, fmt.Errorf("exposition: value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads name="value" pairs with the exposition's escapes.
func parseLabels(src string, into map[string]string) error {
	for len(src) > 0 {
		eq := strings.IndexByte(src, '=')
		if eq < 0 || eq+1 >= len(src) || src[eq+1] != '"' {
			return fmt.Errorf("bad label list %q", src)
		}
		name := strings.TrimSpace(src[:eq])
		var val strings.Builder
		i := eq + 2
		for ; i < len(src) && src[i] != '"'; i++ {
			if src[i] == '\\' && i+1 < len(src) {
				i++
				switch src[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(src[i])
				}
				continue
			}
			val.WriteByte(src[i])
		}
		if i >= len(src) {
			return fmt.Errorf("unterminated label value in %q", src)
		}
		into[name] = val.String()
		src = strings.TrimPrefix(strings.TrimSpace(src[i+1:]), ",")
	}
	return nil
}

func matches(s promSample, name string, want map[string]string) bool {
	if s.Name != name {
		return false
	}
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// sum totals every sample of name whose labels include want.
func (e exposition) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range e {
		if matches(s, name, want) {
			t += s.Value
		}
	}
	return t
}

// histogram is a cumulative bucket ladder merged over label sets.
type histogram struct {
	Bounds []float64 // upper bounds, +Inf last
	Cum    []float64
	Sum    float64
	Count  float64
}

// hist merges the histogram family name over every label set including want.
func (e exposition) hist(name string, want map[string]string) histogram {
	byLE := map[float64]float64{}
	h := histogram{
		Sum:   e.sum(name+"_sum", want),
		Count: e.sum(name+"_count", want),
	}
	for _, s := range e {
		if !matches(s, name+"_bucket", want) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		byLE[le] += s.Value
	}
	for le := range byLE {
		h.Bounds = append(h.Bounds, le)
	}
	sort.Float64s(h.Bounds)
	for _, le := range h.Bounds {
		h.Cum = append(h.Cum, byLE[le])
	}
	return h
}

// quantile estimates the q-quantile (0..1) by linear interpolation inside
// the bucket holding it, as Prometheus' histogram_quantile does. A quantile
// landing in the +Inf bucket reports the highest finite bound.
func (h histogram) quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * h.Count
	prevBound, prevCum := 0.0, 0.0
	for i, b := range h.Bounds {
		if h.Cum[i] >= rank {
			if math.IsInf(b, 1) {
				return prevBound
			}
			span := h.Cum[i] - prevCum
			if span <= 0 {
				return b
			}
			return prevBound + (b-prevBound)*(rank-prevCum)/span
		}
		prevBound, prevCum = b, h.Cum[i]
	}
	return prevBound
}

// mean is Sum/Count, or 0 for an empty histogram.
func (h histogram) mean() float64 {
	if h.Count <= 0 {
		return 0
	}
	return h.Sum / h.Count
}
