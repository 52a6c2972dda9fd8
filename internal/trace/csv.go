package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/geo"
)

// csvHeader is the column layout of the CSV interchange format: the shape
// of a real RTB transaction log (stable device ID, WGS-84 coordinates,
// millisecond timestamp). Ground-truth top locations are deliberately NOT
// part of this format — a log never contains them.
var csvHeader = []string{"user_id", "lat", "lon", "timestamp_ms"}

// WriteCSV exports the dataset's check-ins as a flat RTB-log-style CSV,
// projecting plane coordinates back to WGS-84 via the dataset origin.
func WriteCSV(w io.Writer, ds *Dataset) error {
	proj, err := geo.NewProjection(ds.Origin)
	if err != nil {
		return fmt.Errorf("trace: csv projection: %w", err)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing csv header: %w", err)
	}
	for _, u := range ds.Users {
		for _, c := range u.CheckIns {
			ll := proj.ToLatLon(c.Pos)
			rec := []string{
				u.ID,
				strconv.FormatFloat(ll.Lat, 'f', 7, 64),
				strconv.FormatFloat(ll.Lon, 'f', 7, 64),
				strconv.FormatInt(c.Time.UnixMilli(), 10),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: writing csv row for %q: %w", u.ID, err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing csv: %w", err)
	}
	return nil
}
