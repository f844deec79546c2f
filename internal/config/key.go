package config

import (
	"strconv"
	"strings"
)

// CanonicalKey returns a compact, collision-free fingerprint of every
// configuration field, for use as a simulation-result cache key: the
// PrefixKey fields followed by the late-binding knobs, so equal canonical
// keys imply equal prefix keys. Unlike fmt.Sprintf("%+v", c), it is cheap
// (no reflection), stable against struct reordering, and explicit: a
// field added to Config without a matching line here or in writePrefix
// fails TestCanonicalKeyCoversEveryField, instead of silently colliding
// the way %+v would if Config ever gained a pointer or map field.
func (c *Config) CanonicalKey() string {
	var w keyWriter
	w.Grow(192)
	c.writePrefix(&w)
	w.i64(c.ExchangeInterval)
	w.f(c.HybridAlpha)
	w.i(c.StealBatch)
	w.b(c.InformedStealing)
	w.i(c.SchedulingWindow)
	w.i64(c.SchedulingPeriod)
	w.WriteString(string(c.SchedPolicy))
	w.WriteByte('|')
	w.WriteString(c.Faults.Key())
	return w.String()
}

// keyWriter builds the cache keys one '|'-terminated field at a time.
type keyWriter struct{ strings.Builder }

func (w *keyWriter) i(v int) {
	w.WriteString(strconv.Itoa(v))
	w.WriteByte('|')
}

func (w *keyWriter) i64(v int64) {
	w.WriteString(strconv.FormatInt(v, 10))
	w.WriteByte('|')
}

func (w *keyWriter) f(v float64) {
	w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	w.WriteByte('|')
}

func (w *keyWriter) b(v bool) {
	if v {
		w.WriteByte('t')
	} else {
		w.WriteByte('f')
	}
	w.WriteByte('|')
}
