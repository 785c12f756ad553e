package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the relation as CSV: a header of column names followed by
// one record per row. Symbolic cells are not representable in CSV and cause
// an error; NULLs are written as empty fields.
func WriteCSV(w io.Writer, rel *Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, rel.Schema.Len())
	for i, c := range rel.Schema.Cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	record := make([]string, rel.Schema.Len())
	for ri, row := range rel.Rows {
		for i, v := range row.Values {
			switch v.Kind() {
			case KindNull:
				record[i] = ""
			case KindPoly:
				return fmt.Errorf("relation: row %d column %q is symbolic; CSV cannot represent it", ri, rel.Schema.Cols[i].Name)
			default:
				record[i] = v.String()
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation from CSV using the schema's declared kinds to
// parse each field. The first record must be a header matching the schema's
// column names in order. Empty fields become NULL for non-string columns
// and empty strings for string columns.
func ReadCSV(r io.Reader, name string, schema *Schema) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.Len()
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	for i, c := range schema.Cols {
		if header[i] != c.Name {
			return nil, fmt.Errorf("relation: CSV header %q at position %d, want %q", header[i], i, c.Name)
		}
	}
	rel := NewRelation(name, schema)
	line := 1
	for {
		record, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV: %w", err)
		}
		line++
		vals := make([]Value, schema.Len())
		for i, field := range record {
			v, err := parseCSVField(field, schema.Cols[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("relation: line %d column %q: %w", line, schema.Cols[i].Name, err)
			}
			vals[i] = v
		}
		rel.Append(vals...)
	}
}

func parseCSVField(field string, kind Kind) (Value, error) {
	if field == "" && kind != KindString {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad integer %q", field)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad number %q", field)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(field)
		if err != nil {
			return Value{}, fmt.Errorf("bad boolean %q", field)
		}
		return Bool(b), nil
	case KindString, KindNull:
		return Str(field), nil
	default:
		return Value{}, fmt.Errorf("cannot parse into kind %s", kind)
	}
}
