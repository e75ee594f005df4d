//! Incremental nearest-neighbour search (paper Section 5 / Figure 17):
//! the same generic `NN_Search` runs over the kd-tree, the point quadtree
//! (Euclidean distance) and the trie (Hamming-style distance).
//!
//! ```text
//! cargo run --release --example nearest_neighbor
//! ```

use spgist::datagen::{points, words};
use spgist::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let point_data = points(10_000, 5);
    let word_data = words(10_000, 6);

    let kd = KdTreeIndex::create(BufferPool::in_memory())?;
    let quad = PointQuadtreeIndex::create(BufferPool::in_memory())?;
    let trie = TrieIndex::create(BufferPool::in_memory())?;
    for (row, p) in point_data.iter().enumerate() {
        kd.insert(*p, row as RowId)?;
        quad.insert(*p, row as RowId)?;
    }
    for (row, w) in word_data.iter().enumerate() {
        trie.insert(w.clone(), row as RowId)?;
    }

    let anchor = Point::new(50.0, 50.0);
    println!("5 nearest points to (50, 50):");
    for (p, row, d) in kd.nearest(anchor, 5)? {
        println!(
            "  kd-tree   row {row:>5}  ({:>6.2}, {:>6.2})  dist {d:.3}",
            p.x, p.y
        );
    }
    for (p, row, d) in quad.nearest(anchor, 5)? {
        println!(
            "  quadtree  row {row:>5}  ({:>6.2}, {:>6.2})  dist {d:.3}",
            p.x, p.y
        );
    }
    // Both spatial indexes must agree on the distances (the points may tie).
    let kd_d: Vec<f64> = kd.nearest(anchor, 5)?.iter().map(|(_, _, d)| *d).collect();
    let quad_d: Vec<f64> = quad
        .nearest(anchor, 5)?
        .iter()
        .map(|(_, _, d)| *d)
        .collect();
    assert!(kd_d.iter().zip(&quad_d).all(|(a, b)| (a - b).abs() < 1e-9));

    let target = &word_data[42];
    println!("5 nearest words to {target:?} (Hamming-style distance):");
    for (w, row, d) in trie.nearest(target, 5)? {
        println!("  trie      row {row:>5}  {w:<16}  dist {d}");
    }

    // The iterator is incremental: asking for more neighbours only extends
    // the previous prefix (a query pipeline can pull one at a time).
    let first_10: Vec<u64> = kd.nearest(anchor, 10)?.iter().map(|(_, r, _)| *r).collect();
    let first_3: Vec<u64> = kd.nearest(anchor, 3)?.iter().map(|(_, r, _)| *r).collect();
    assert_eq!(&first_10[..3], &first_3[..]);
    println!("incremental get-next verified: first 3 of k=10 equal k=3 result");

    // `@@` is also a planned access path: through the executor, a nearest
    // predicate is costed, routed to an ordered scan over the chosen index,
    // and can be constrained by ordinary predicates (constrained k-NN).
    let mut db = Database::in_memory();
    db.create_table("pts", KeyType::Point)?;
    let table = db.table_mut("pts").unwrap();
    for p in &point_data {
        table.insert(*p)?;
    }
    table.create_index("pts_quad", IndexSpec::PointQuadtree)?;
    let query = Predicate::point_nearest(anchor)
        .and(Predicate::point_in_rect(Rect::new(40.0, 40.0, 60.0, 60.0)))
        .limit(5);
    let cursor = db.query("pts", query)?;
    println!("planned constrained k-NN: {:?}", cursor.path());
    for item in cursor {
        let (row, datum) = item?;
        println!("  row {row:>5}  {datum:?}");
    }
    Ok(())
}
