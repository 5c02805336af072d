//! Upper-triangular tile decomposition of the gene-pair space.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One rectangular tile of the pair space: gene rows `row_start..row_end`
/// against gene columns `col_start..col_end`, restricted to pairs
/// `(i, j)` with `i < j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tile {
    /// First row gene (inclusive).
    pub row_start: u32,
    /// One past the last row gene.
    pub row_end: u32,
    /// First column gene (inclusive).
    pub col_start: u32,
    /// One past the last column gene.
    pub col_end: u32,
}

impl Tile {
    /// Is this a diagonal tile (row block == column block)?
    pub fn is_diagonal(&self) -> bool {
        self.row_start == self.col_start && self.row_end == self.col_end
    }

    /// Number of `(i, j), i < j` pairs inside the tile.
    pub fn pair_count(&self) -> u64 {
        if self.is_diagonal() {
            let t = (self.row_end - self.row_start) as u64;
            t * (t - 1) / 2
        } else {
            let r = (self.row_end - self.row_start) as u64;
            let c = (self.col_end - self.col_start) as u64;
            r * c
        }
    }

    /// Number of distinct genes whose weight matrices the tile touches —
    /// the quantity the cache-blocking tile-size choice is based on.
    pub fn genes_touched(&self) -> u32 {
        if self.is_diagonal() {
            self.row_end - self.row_start
        } else {
            (self.row_end - self.row_start) + (self.col_end - self.col_start)
        }
    }

    /// Iterate over the `(i, j), i < j` pairs of the tile in row-major
    /// order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let tile = *self;
        (tile.row_start..tile.row_end).flat_map(move |i| {
            let cstart = if tile.is_diagonal() {
                i + 1
            } else {
                tile.col_start
            };
            (cstart.max(tile.col_start)..tile.col_end).map(move |j| (i, j))
        })
    }

    /// Cut the pairs of gene rows `rows` against gene columns `cols` into
    /// `tile_size`-wide tiles, in row-major block order. Equal ranges
    /// cover their strict upper triangle (diagonal tiles are triangles);
    /// otherwise every row gene must precede every column gene and the
    /// whole rectangle is covered. Tiles without pairs are left out.
    ///
    /// # Panics
    /// Panics if `tile_size == 0`, or if the ranges neither coincide nor
    /// are ordered rows-before-columns.
    pub fn cover(rows: Range<u32>, cols: Range<u32>, tile_size: u32) -> Vec<Tile> {
        assert!(tile_size >= 1, "tile size must be positive");
        let triangle = rows == cols;
        assert!(
            triangle || rows.end <= cols.start,
            "row genes must precede column genes"
        );
        let chunks = |r: &Range<u32>| -> Vec<(u32, u32)> {
            r.clone()
                .step_by(tile_size as usize)
                .map(|s| (s, s.saturating_add(tile_size).min(r.end)))
                .collect()
        };
        let (row_chunks, col_chunks) = (chunks(&rows), chunks(&cols));
        let mut tiles = Vec::new();
        for (br, &(row_start, row_end)) in row_chunks.iter().enumerate() {
            let first_col = if triangle { br } else { 0 };
            for &(col_start, col_end) in &col_chunks[first_col..] {
                let tile = Tile {
                    row_start,
                    row_end,
                    col_start,
                    col_end,
                };
                if tile.pair_count() > 0 {
                    tiles.push(tile);
                }
            }
        }
        tiles
    }

    /// The distinct gene indices the tile touches: rows first, then any
    /// columns not already in the row range.
    pub fn gene_indices(&self) -> Vec<u32> {
        let mut out: Vec<u32> = (self.row_start..self.row_end).collect();
        if !self.is_diagonal() {
            out.extend(self.col_start..self.col_end);
        }
        out
    }
}

/// The full tiling of the strict upper triangle of an `n × n` pair matrix
/// into `tile_size`-wide blocks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSpace {
    genes: u32,
    tile_size: u32,
    tiles: Vec<Tile>,
}

impl TileSpace {
    /// Tile the pair space of `genes` genes with `tile_size × tile_size`
    /// blocks (edge blocks are smaller).
    ///
    /// # Panics
    /// Panics if `genes < 2` or `tile_size == 0`.
    pub fn new(genes: usize, tile_size: usize) -> Self {
        assert!(genes >= 2, "need at least two genes to have a pair");
        assert!(tile_size >= 1, "tile size must be positive");
        let n = u32::try_from(genes).expect("gene count fits the u32 tile index space");
        let t = u32::try_from(tile_size).expect("tile size fits the u32 tile index space");
        Self {
            genes: n,
            tile_size: t,
            tiles: Tile::cover(0..n, 0..n, t),
        }
    }

    /// Number of genes `n`.
    pub fn genes(&self) -> usize {
        self.genes as usize
    }

    /// Configured tile edge length.
    pub fn tile_size(&self) -> usize {
        self.tile_size as usize
    }

    /// The tiles, in row-major block order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Total pair count over all tiles; always `n(n−1)/2`.
    pub fn total_pairs(&self) -> u64 {
        self.tiles.iter().map(Tile::pair_count).sum()
    }

    /// Choose a tile size so one tile's working set (`2·T` gene weight
    /// matrices of `bytes_per_gene`) fits in `cache_bytes`, clamped to
    /// `[4, genes]`. This encodes the paper's L2 blocking rule.
    pub fn tile_size_for_cache(genes: usize, bytes_per_gene: usize, cache_bytes: usize) -> usize {
        assert!(bytes_per_gene > 0, "genes cannot be weightless");
        let t = cache_bytes / (2 * bytes_per_gene);
        t.clamp(4, genes.max(4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn tiles_partition_the_pair_space_exactly() {
        for (n, t) in [
            (10usize, 3usize),
            (16, 4),
            (17, 4),
            (100, 7),
            (5, 64),
            (2, 1),
        ] {
            let space = TileSpace::new(n, t);
            let mut seen = HashSet::new();
            for tile in space.tiles() {
                for (i, j) in tile.pairs() {
                    assert!(i < j, "pair ({i},{j}) not strictly upper triangular");
                    assert!((j as usize) < n);
                    assert!(seen.insert((i, j)), "pair ({i},{j}) covered twice");
                }
            }
            assert_eq!(
                seen.len() as u64,
                (n as u64) * (n as u64 - 1) / 2,
                "n={n}, t={t}"
            );
            assert_eq!(space.total_pairs(), seen.len() as u64);
        }
    }

    #[test]
    fn pair_count_matches_enumeration() {
        let space = TileSpace::new(23, 5);
        for tile in space.tiles() {
            assert_eq!(tile.pair_count(), tile.pairs().count() as u64, "{tile:?}");
        }
    }

    #[test]
    fn diagonal_tiles_are_triangles() {
        let space = TileSpace::new(12, 4);
        let diag: Vec<&Tile> = space.tiles().iter().filter(|t| t.is_diagonal()).collect();
        assert_eq!(diag.len(), 3);
        for t in diag {
            assert_eq!(t.pair_count(), 6); // C(4,2)
            assert_eq!(t.genes_touched(), 4);
        }
    }

    #[test]
    fn off_diagonal_tiles_are_full_rectangles() {
        let space = TileSpace::new(8, 4);
        let off: Vec<&Tile> = space.tiles().iter().filter(|t| !t.is_diagonal()).collect();
        assert_eq!(off.len(), 1);
        assert_eq!(off[0].pair_count(), 16);
        assert_eq!(off[0].genes_touched(), 8);
    }

    #[test]
    fn cover_tiles_offset_triangles_and_rectangles() {
        // An offset triangle is the plain tiling shifted by the offset.
        let shifted: Vec<Tile> = TileSpace::new(11, 4)
            .tiles()
            .iter()
            .map(|t| Tile {
                row_start: t.row_start + 5,
                row_end: t.row_end + 5,
                col_start: t.col_start + 5,
                col_end: t.col_end + 5,
            })
            .collect();
        assert_eq!(Tile::cover(5..16, 5..16, 4), shifted);
        // A rectangle covers every row × column pair once, row-major.
        let tiles = Tile::cover(3..10, 12..17, 4);
        let pairs: Vec<(u32, u32)> = tiles.iter().flat_map(Tile::pairs).collect();
        let mut expect: Vec<(u32, u32)> = (3..10)
            .flat_map(|i| (12..17).map(move |j| (i, j)))
            .collect();
        assert_eq!(pairs.len(), expect.len());
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_eq!(tiles.len(), 4);
        assert!(tiles.iter().all(|t| !t.is_diagonal()));
        assert!(Tile::cover(3..10, 12..12, 4).is_empty());
    }

    #[test]
    fn gene_indices_cover_rows_and_columns() {
        let t = Tile {
            row_start: 0,
            row_end: 2,
            col_start: 4,
            col_end: 6,
        };
        assert_eq!(t.gene_indices(), vec![0, 1, 4, 5]);
        let d = Tile {
            row_start: 4,
            row_end: 6,
            col_start: 4,
            col_end: 6,
        };
        assert_eq!(d.gene_indices(), vec![4, 5]);
    }

    #[test]
    fn oversized_tile_degenerates_to_single_tile() {
        let space = TileSpace::new(6, 100);
        assert_eq!(space.tiles().len(), 1);
        assert!(space.tiles()[0].is_diagonal());
        assert_eq!(space.total_pairs(), 15);
    }

    #[test]
    #[should_panic(expected = "at least two genes")]
    fn single_gene_rejected() {
        let _ = TileSpace::new(1, 4);
    }

    #[test]
    fn cache_blocking_rule() {
        // 44 KB per gene (3137 samples × 14 B sparse) in a 512 KB L2 share
        // ⇒ T ≈ 5... clamped up to 4 minimum; with 256 KB per-core share of
        // a big L2 and small genes, T grows.
        let t = TileSpace::tile_size_for_cache(15_575, 44_000, 512 * 1024);
        assert_eq!(t, 5);
        let t2 = TileSpace::tile_size_for_cache(1000, 1_000, 512 * 1024);
        assert_eq!(t2, 262);
        let t3 = TileSpace::tile_size_for_cache(100, 1_000_000, 512 * 1024);
        assert_eq!(t3, 4, "clamped to the minimum");
    }

    proptest! {
        #[test]
        fn prop_partition_exact(n in 2usize..120, t in 1usize..40) {
            let space = TileSpace::new(n, t);
            let covered: u64 = space.tiles().iter().map(Tile::pair_count).sum();
            prop_assert_eq!(covered, (n as u64) * (n as u64 - 1) / 2);
            // No tile exceeds the configured working set.
            for tile in space.tiles() {
                prop_assert!(tile.genes_touched() as usize <= 2 * t);
            }
        }
    }
}
