(** GPU graphics workloads: the OpenGL microbenchmarks (Figure 3) and
    3D games (Figure 4), as per-frame GPU work + file-op traffic
    profiles calibrated to the paper's native FPS. *)

type profile = {
  name : string;
  vertices : int;
  state_ioctls_per_frame : int;
  texture_uploads_per_frame : int;
}

val vbo : profile
val vertex_array : profile
val opengl_benchmarks : profile list
val tremulous : profile
val nexuiz : profile
val games : profile list
val resolutions : (int * int) list

(** Render frames and return average FPS; [~vsync:true] paces frames
    with the driver's software-emulated VSync. *)
val run :
  Runner.env ->
  ?vsync:bool ->
  profile:profile ->
  width:int ->
  height:int ->
  frames:int ->
  unit ->
  float
