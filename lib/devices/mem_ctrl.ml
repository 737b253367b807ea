(** GPU memory controller.

    The Evergreen-series controller has two registers bounding the
    device memory the GPU cores may touch; Paradice's hypervisor takes
    exclusive control of them to confine each guest to its device-
    memory slice (§4.2).  The registers live on their own MMIO page so
    the hypervisor can unmap exactly that page from the driver VM
    (§5.3 change (iii)). *)

type t = {
  vram_base : int; (* spa of the VRAM aperture *)
  vram_bytes : int;
  mutable low : int; (* accessible range [low, high), spa *)
  mutable high : int;
  mutable blocked : int; (* accesses stopped by the bounds *)
}

(* Register offsets within the MC MMIO page. *)
let reg_low_bound = 0x00
let reg_high_bound = 0x08

let create ~vram_base ~vram_bytes =
  {
    vram_base;
    vram_bytes;
    low = vram_base;
    high = vram_base + vram_bytes;
    blocked = 0;
  }

let blocked_count t = t.blocked

let set_bounds t ~low ~high =
  if low < t.vram_base || high > t.vram_base + t.vram_bytes || low > high then
    invalid_arg "Mem_ctrl.set_bounds: outside aperture";
  t.low <- low;
  t.high <- high

(** Check a GPU-core access against the bounds.  Out-of-bounds accesses
    "will not succeed" (§4.2): we raise a bus error the GPU model turns
    into a dropped command. *)
let check t ~spa ~len ~access =
  if spa < t.low || spa + len > t.high then begin
    t.blocked <- t.blocked + 1;
    Memory.Fault.bus_error ~addr:spa ~access "GPU access outside MC bounds"
  end

(** Install the MC registers as an MMIO page so the driver programs
    them with ordinary register writes; returns the spn.  The
    hypervisor later unmaps this page from the driver VM and installs
    itself as the only writer via {!set_bounds}. *)
let install_mmio t phys =
  (* Byte [off] of the register file: the two 8-byte bound registers,
     zeros elsewhere. *)
  let reg_byte off =
    if off >= reg_low_bound && off < reg_low_bound + 8 then
      Char.chr ((t.low lsr ((off - reg_low_bound) * 8)) land 0xff)
    else if off >= reg_high_bound && off < reg_high_bound + 8 then
      Char.chr ((t.high lsr ((off - reg_high_bound) * 8)) land 0xff)
    else '\000'
  in
  let handler =
    {
      Memory.Phys_mem.mmio_read =
        (fun ~offset ~len -> Bytes.init len (fun i -> reg_byte (offset + i)));
      mmio_write =
        (fun ~offset data ->
          (* Registers are written as whole 8-byte stores. *)
          if offset = reg_low_bound && Bytes.length data = 8 then
            t.low <- Int64.to_int (Bytes.get_int64_le data 0)
          else if offset = reg_high_bound && Bytes.length data = 8 then
            t.high <- Int64.to_int (Bytes.get_int64_le data 0)
          else ());
    }
  in
  Memory.Phys_mem.alloc_mmio phys handler
