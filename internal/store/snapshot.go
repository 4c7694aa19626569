package store

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sgmldb/internal/object"
)

// This file implements instance serialisation: a schema and its instance
// are written to and read back from a stream — the store section of a
// checkpoint (wal.EncodeCheckpoint), which is also what Database.Save
// writes. The encoding is a
// line-oriented text format with length-prefixed strings, so it is
// deterministic, diffable, and independent of Go's reflection-based
// serialisers (the model's values and types are interfaces with unexported
// structure).

const snapshotMagic = "sgmldb-snapshot 1"

// Save writes the snapshot of inst (schema and data) to w. Method bodies
// (μ) are code and are not serialised; they must be re-bound after Load.
func Save(w io.Writer, inst *Instance) error {
	s := inst.Schema()
	if _, err := fmt.Fprintln(w, snapshotMagic); err != nil {
		return err
	}
	var b strings.Builder
	for _, c := range s.Hierarchy().Classes() {
		b.Reset()
		b.WriteString("class ")
		writeString(&b, c)
		t, _ := s.Hierarchy().TypeOf(c)
		b.WriteByte(' ')
		encodeType(&b, t)
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
		for _, p := range s.Hierarchy().Parents(c) {
			b.Reset()
			b.WriteString("inherits ")
			writeString(&b, c)
			b.WriteByte(' ')
			writeString(&b, p)
			b.WriteByte('\n')
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
		for _, con := range s.Constraints(c) {
			b.Reset()
			b.WriteString("constraint ")
			writeString(&b, c)
			b.WriteByte(' ')
			if err := encodeConstraint(&b, con); err != nil {
				return err
			}
			b.WriteByte('\n')
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	// Private attributes.
	for _, c := range s.Hierarchy().Classes() {
		t, _ := s.Hierarchy().TypeOf(c)
		if tt, ok := t.(object.TupleType); ok {
			for _, f := range tt.Fields() {
				if s.IsPrivate(c, f.Name) {
					b.Reset()
					b.WriteString("private ")
					writeString(&b, c)
					b.WriteByte(' ')
					writeString(&b, f.Name)
					b.WriteByte('\n')
					if _, err := io.WriteString(w, b.String()); err != nil {
						return err
					}
				}
			}
		}
	}
	for _, m := range s.Methods() {
		b.Reset()
		b.WriteString("method ")
		writeString(&b, m.Class)
		b.WriteByte(' ')
		writeString(&b, m.Name)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(len(m.Params)))
		for _, p := range m.Params {
			b.WriteByte(' ')
			encodeType(&b, p)
		}
		b.WriteByte(' ')
		if m.Result != nil {
			encodeType(&b, m.Result)
		} else {
			b.WriteByte('-')
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	for _, g := range s.Roots() {
		t, _ := s.RootType(g)
		b.Reset()
		b.WriteString("rootdecl ")
		writeString(&b, g)
		b.WriteByte(' ')
		encodeType(&b, t)
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	// Data: objects then roots.
	for _, o := range inst.Objects() {
		c, _ := inst.ClassOf(o)
		v, _ := inst.Deref(o)
		b.Reset()
		b.WriteString("object ")
		b.WriteString(strconv.FormatUint(uint64(o), 10))
		b.WriteByte(' ')
		writeString(&b, c)
		b.WriteByte(' ')
		encodeValue(&b, v)
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	for _, g := range s.Roots() {
		v, ok := inst.Root(g)
		if !ok {
			continue
		}
		b.Reset()
		b.WriteString("rootval ")
		writeString(&b, g)
		b.WriteByte(' ')
		encodeValue(&b, v)
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "end")
	return err
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Instance, error) {
	br := bufio.NewReader(r)
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if line != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot file (got %q)", line)
	}
	schema := NewSchema()
	inst := NewInstance(schema)
	for {
		line, err := readLine(br)
		if err == io.EOF {
			return nil, fmt.Errorf("store: truncated snapshot (missing end)")
		}
		if err != nil {
			return nil, err
		}
		if line == "end" {
			break
		}
		verb, rest, _ := strings.Cut(line, " ")
		p := &parser{s: rest}
		switch verb {
		case "class":
			name := p.str()
			p.space()
			t := p.typ()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad class line: %w", p.err)
			}
			if err := schema.AddClass(name, t); err != nil {
				return nil, err
			}
		case "inherits":
			c := p.str()
			p.space()
			sup := p.str()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad inherits line: %w", p.err)
			}
			if err := schema.AddInherits(c, sup); err != nil {
				return nil, err
			}
		case "constraint":
			c := p.str()
			p.space()
			con := p.constraint()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad constraint line: %w", p.err)
			}
			if err := schema.AddConstraint(c, con); err != nil {
				return nil, err
			}
		case "private":
			c := p.str()
			p.space()
			a := p.str()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad private line: %w", p.err)
			}
			if err := schema.MarkPrivate(c, a); err != nil {
				return nil, err
			}
		case "method":
			c := p.str()
			p.space()
			name := p.str()
			p.space()
			n := p.count()
			params := make([]object.Type, n)
			for i := 0; i < n; i++ {
				p.space()
				params[i] = p.typ()
			}
			p.space()
			var result object.Type
			if !p.lit("-") {
				result = p.typ()
			}
			if p.err != nil {
				return nil, fmt.Errorf("store: bad method line: %w", p.err)
			}
			if err := schema.AddMethod(MethodSig{Class: c, Name: name, Params: params, Result: result}); err != nil {
				return nil, err
			}
		case "rootdecl":
			g := p.str()
			p.space()
			t := p.typ()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad rootdecl line: %w", p.err)
			}
			if err := schema.AddRoot(g, t); err != nil {
				return nil, err
			}
		case "object":
			idStr, rest2, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("store: bad object line %q", line)
			}
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("store: bad oid %q", idStr)
			}
			p = &parser{s: rest2}
			c := p.str()
			p.space()
			v := p.value()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad object line: %w", p.err)
			}
			// Oids are dense and ascending in every instance Save can be
			// given, and the oid table is indexed by them: a snapshot that
			// skips ahead is refused rather than given a table to match.
			if want := uint64(inst.NumObjects() + 1); id != want {
				return nil, fmt.Errorf("store: object %d out of sequence (want %d)", id, want)
			}
			if _, err := inst.NewObject(c, v); err != nil {
				return nil, err
			}
		case "rootval":
			g := p.str()
			p.space()
			v := p.value()
			if p.err != nil {
				return nil, fmt.Errorf("store: bad rootval line: %w", p.err)
			}
			if err := inst.SetRoot(g, v); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("store: unknown snapshot verb %q", verb)
		}
	}
	if err := schema.Check(); err != nil {
		return nil, err
	}
	return inst, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line != "" {
		return strings.TrimRight(line, "\n"), nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// writeString emits a length-prefixed string: <len>:<bytes>.
func writeString(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// encodeType emits a parseable type encoding.
func encodeType(b *strings.Builder, t object.Type) {
	switch ty := t.(type) {
	case object.AtomicType:
		switch ty.K {
		case object.TypeInt:
			b.WriteString("ti")
		case object.TypeFloat:
			b.WriteString("tf")
		case object.TypeString:
			b.WriteString("ts")
		case object.TypeBool:
			b.WriteString("tb")
		default:
			// non-atomic kinds never label an AtomicType
		}
	case object.AnyType:
		b.WriteString("ta")
	case object.ClassType:
		b.WriteString("tc")
		writeString(b, ty.Name)
	case object.ListType:
		b.WriteString("tl")
		encodeType(b, ty.Elem)
	case object.SetType:
		b.WriteString("tS")
		encodeType(b, ty.Elem)
	case object.TupleType:
		b.WriteString("tt")
		b.WriteString(strconv.Itoa(ty.Len()))
		b.WriteByte('{')
		for _, f := range ty.Fields() {
			writeString(b, f.Name)
			encodeType(b, f.Type)
		}
		b.WriteByte('}')
	case object.UnionType:
		b.WriteString("tu")
		b.WriteString(strconv.Itoa(ty.Len()))
		b.WriteByte('{')
		for _, a := range ty.Alts() {
			writeString(b, a.Name)
			encodeType(b, a.Type)
		}
		b.WriteByte('}')
	default:
		//lint:allow panic unreachable: the switch covers the closed object.Type set (enforced by sgmldbvet exhaustive)
		panic(fmt.Sprintf("store: cannot encode type %T", t))
	}
}

// encodeValue emits a parseable value encoding.
func encodeValue(b *strings.Builder, v object.Value) {
	switch x := v.(type) {
	case nil, object.Nil:
		b.WriteString("vn")
	case object.Int:
		b.WriteString("vi")
		b.WriteString(strconv.FormatInt(int64(x), 10))
		b.WriteByte(';')
	case object.Float:
		b.WriteString("vf")
		b.WriteString(strconv.FormatUint(math.Float64bits(float64(x)), 16))
		b.WriteByte(';')
	case object.String_:
		b.WriteString("vs")
		writeString(b, string(x))
	case object.Bool:
		if x {
			b.WriteString("vT")
		} else {
			b.WriteString("vF")
		}
	case object.OID:
		b.WriteString("vo")
		b.WriteString(strconv.FormatUint(uint64(x), 10))
		b.WriteByte(';')
	case *object.Tuple:
		b.WriteString("vt")
		b.WriteString(strconv.Itoa(x.Len()))
		b.WriteByte('{')
		for i := 0; i < x.Len(); i++ {
			f := x.At(i)
			writeString(b, f.Name)
			encodeValue(b, f.Value)
		}
		b.WriteByte('}')
	case *object.List:
		b.WriteString("vl")
		b.WriteString(strconv.Itoa(x.Len()))
		b.WriteByte('{')
		for i := 0; i < x.Len(); i++ {
			encodeValue(b, x.At(i))
		}
		b.WriteByte('}')
	case *object.Set:
		b.WriteString("vS")
		b.WriteString(strconv.Itoa(x.Len()))
		b.WriteByte('{')
		for i := 0; i < x.Len(); i++ {
			encodeValue(b, x.At(i))
		}
		b.WriteByte('}')
	case *object.Union_:
		b.WriteString("vu")
		writeString(b, x.Marker)
		encodeValue(b, x.Value)
	default:
		//lint:allow panic unreachable: the switch covers the closed object.Value set (enforced by sgmldbvet exhaustive)
		panic(fmt.Sprintf("store: cannot encode value %T", v))
	}
}

// encodeConstraint emits a parseable constraint encoding.
func encodeConstraint(b *strings.Builder, c Constraint) error {
	switch con := c.(type) {
	case NotNil:
		b.WriteString("cn")
		writeString(b, con.Attr)
	case NotEmptyList:
		b.WriteString("ce")
		writeString(b, con.Attr)
	case InSet:
		b.WriteString("cs")
		writeString(b, con.Attr)
		b.WriteString(strconv.Itoa(len(con.Values)))
		b.WriteByte('{')
		for _, v := range con.Values {
			encodeValue(b, v)
		}
		b.WriteByte('}')
	case OnAlt:
		b.WriteString("ca")
		writeString(b, con.Marker)
		b.WriteString(strconv.Itoa(len(con.Inner)))
		b.WriteByte('{')
		for _, inner := range con.Inner {
			if err := encodeConstraint(b, inner); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	case AnyOf:
		b.WriteString("co")
		b.WriteString(strconv.Itoa(len(con.Alts)))
		b.WriteByte('{')
		for _, a := range con.Alts {
			if err := encodeConstraint(b, a); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		return fmt.Errorf("store: cannot encode constraint %T", c)
	}
	return nil
}

// parser decodes the encodings above.
type parser struct {
	s   string
	pos int
	err error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format+" at %d in %q", append(args, p.pos, p.s)...)
	}
}

func (p *parser) byte() byte {
	if p.err != nil {
		return 0
	}
	if p.pos >= len(p.s) {
		p.fail("unexpected end")
		return 0
	}
	c := p.s[p.pos]
	p.pos++
	return c
}

func (p *parser) lit(s string) bool {
	if p.err != nil {
		return false
	}
	if strings.HasPrefix(p.s[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) space() {
	if !p.lit(" ") {
		p.fail("expected space")
	}
}

func (p *parser) int() int {
	if p.err != nil {
		return 0
	}
	start := p.pos
	if p.pos < len(p.s) && (p.s[p.pos] == '-' || p.s[p.pos] == '+') {
		p.pos++
	}
	for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
		p.pos++
	}
	n, err := strconv.Atoi(p.s[start:p.pos])
	if err != nil {
		p.fail("bad integer")
		return 0
	}
	return n
}

// count reads the length of a string or the number of elements that
// follow. Each takes at least a byte of what is left of the line, so a
// larger (or negative) count is malformed: it is refused before anything
// is allocated for it.
func (p *parser) count() int {
	n := p.int()
	if p.err == nil && (n < 0 || n > len(p.s)-p.pos) {
		p.fail("count %d overruns input", n)
		return 0
	}
	return n
}

// str reads a length-prefixed string <len>:<bytes>.
func (p *parser) str() string {
	n := p.count()
	if p.err != nil {
		return ""
	}
	if !p.lit(":") {
		p.fail("expected ':' after string length")
		return ""
	}
	if p.pos+n > len(p.s) {
		p.fail("string overruns input")
		return ""
	}
	s := p.s[p.pos : p.pos+n]
	p.pos += n
	return s
}

func (p *parser) typ() object.Type {
	if !p.lit("t") {
		p.fail("expected type")
		return nil
	}
	switch c := p.byte(); c {
	case 'i':
		return object.IntType
	case 'f':
		return object.FloatType
	case 's':
		return object.StringType
	case 'b':
		return object.BoolType
	case 'a':
		return object.Any
	case 'c':
		return object.Class(p.str())
	case 'l':
		return object.ListOf(p.typ())
	case 'S':
		return object.SetOf(p.typ())
	case 't':
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		fs := make([]object.TField, n)
		for i := 0; i < n; i++ {
			fs[i] = object.TField{Name: p.str(), Type: p.typ()}
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		if p.err != nil {
			return nil
		}
		return object.TupleOf(fs...)
	case 'u':
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		as := make([]object.TField, n)
		for i := 0; i < n; i++ {
			as[i] = object.TField{Name: p.str(), Type: p.typ()}
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		if p.err != nil {
			return nil
		}
		return object.UnionOf(as...)
	default:
		p.fail("unknown type tag %q", string(c))
		return nil
	}
}

func (p *parser) value() object.Value {
	if !p.lit("v") {
		p.fail("expected value")
		return object.Nil{}
	}
	switch c := p.byte(); c {
	case 'n':
		return object.Nil{}
	case 'i':
		n := p.int()
		if !p.lit(";") {
			p.fail("expected ';'")
		}
		return object.Int(n)
	case 'f':
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] != ';' {
			p.pos++
		}
		bits, err := strconv.ParseUint(p.s[start:p.pos], 16, 64)
		if err != nil {
			p.fail("bad float bits")
			return object.Nil{}
		}
		p.lit(";")
		return object.Float(math.Float64frombits(bits))
	case 's':
		return object.String_(p.str())
	case 'T':
		return object.Bool(true)
	case 'F':
		return object.Bool(false)
	case 'o':
		n := p.int()
		if !p.lit(";") {
			p.fail("expected ';'")
		}
		return object.OID(uint64(n))
	case 't':
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return object.Nil{}
		}
		fs := make([]object.Field, n)
		for i := 0; i < n; i++ {
			fs[i] = object.Field{Name: p.str(), Value: p.value()}
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return object.Nil{}
		}
		if p.err != nil {
			return object.Nil{}
		}
		return object.NewTuple(fs...)
	case 'l':
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return object.Nil{}
		}
		es := make([]object.Value, n)
		for i := 0; i < n; i++ {
			es[i] = p.value()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return object.Nil{}
		}
		return object.NewList(es...)
	case 'S':
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return object.Nil{}
		}
		es := make([]object.Value, n)
		for i := 0; i < n; i++ {
			es[i] = p.value()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return object.Nil{}
		}
		return object.NewSet(es...)
	case 'u':
		m := p.str()
		return object.NewUnion(m, p.value())
	default:
		p.fail("unknown value tag %q", string(c))
		return object.Nil{}
	}
}

func (p *parser) constraint() Constraint {
	if !p.lit("c") {
		p.fail("expected constraint")
		return nil
	}
	switch c := p.byte(); c {
	case 'n':
		return NotNil{Attr: p.str()}
	case 'e':
		return NotEmptyList{Attr: p.str()}
	case 's':
		attr := p.str()
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		vs := make([]object.Value, n)
		for i := 0; i < n; i++ {
			vs[i] = p.value()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		return InSet{Attr: attr, Values: vs}
	case 'a':
		m := p.str()
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		inner := make([]Constraint, n)
		for i := 0; i < n; i++ {
			inner[i] = p.constraint()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		return OnAlt{Marker: m, Inner: inner}
	case 'o':
		n := p.count()
		if !p.lit("{") {
			p.fail("expected '{'")
			return nil
		}
		alts := make([]Constraint, n)
		for i := 0; i < n; i++ {
			alts[i] = p.constraint()
		}
		if !p.lit("}") {
			p.fail("expected '}'")
			return nil
		}
		return AnyOf{Alts: alts}
	default:
		p.fail("unknown constraint tag %q", string(c))
		return nil
	}
}
