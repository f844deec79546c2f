package core

import (
	"fmt"
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/topology"
)

func BenchmarkCampLocations(b *testing.B) {
	e, cm := newEnv(true)
	totalLines := e.space.TotalBytes() / mem.LineSize
	buf := make([]topology.UnitID, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = cm.AppendLocations(buf[:0], mem.Line(uint64(i)*977%totalLines))
	}
}

func BenchmarkNearest(b *testing.B) {
	e, cm := newEnv(true)
	totalLines := e.space.TotalBytes() / mem.LineSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Nearest(e.noc, mem.Line(uint64(i)*977%totalLines), topology.UnitID(i%128))
	}
}

// BenchmarkMemCostVec times one hint's whole costmem vector — the kernel
// every lowestdist and hybrid placement runs — for a 16-line hint spread
// over the units, on the 4x4 default machine and an 8x8 mesh.
func BenchmarkMemCostVec(b *testing.B) {
	for _, mesh := range []int{4, 8} {
		cfg := config.Default()
		cfg.MeshX, cfg.MeshY = mesh, mesh
		e := newEnvFor(cfg)
		units := e.topo.Units()
		cm := NewCampMap(e.topo, e.space, true)
		lines := make([]mem.Line, 16)
		for i := range lines {
			u := uint64(i*37) % uint64(units)
			lines[i] = mem.LineOf(mem.Addr(u*cfg.UnitBytes + uint64(i)*4096))
		}
		for _, campAware := range []bool{true, false} {
			name := fmt.Sprintf("mesh%d/HomesOnly", mesh)
			if campAware {
				name = fmt.Sprintf("mesh%d/CampAware", mesh)
			}
			b.Run(name, func(b *testing.B) {
				model := NewCostModel(e.noc, cm, campAware)
				vec := make([]float64, units)
				sc := model.NewVecScratch()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					model.MemCostVecInto(vec, sc, lines)
				}
			})
		}
	}
}
